// Package bitset is a fixed-size set of small non-negative integers, one
// bit each. The step kernel, the three multi-session policies and the
// gateway's slot table keep their "has work" and "in use" sets in it: a
// set that is iterated in index order — which an append list is not, and
// the policies' observer events must come out in session order — and
// that costs a bit, not a word, per slot.
//
// bwlint:deterministic
package bitset

import "math/bits"

// Set holds the members' bits, 64 to a word. Copies share storage.
type Set []uint64

// New returns an empty set over [0, n).
func New(n int) Set {
	return make(Set, (n+63)/64) // bwlint:allocok constructor
}

// Add inserts i.
func (s Set) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Remove deletes i.
func (s Set) Remove(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether i is a member.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// span returns word w's bits that fall inside [lo, hi), given that the
// word overlaps the range.
func span(w, lo, hi int) uint64 {
	mask := ^uint64(0)
	if base := w << 6; base < lo {
		mask <<= uint(lo - base)
	}
	if end := (w + 1) << 6; end > hi {
		mask &= ^uint64(0) >> uint(end-hi)
	}
	return mask
}

// AppendTo appends the members in [lo, hi) to dst in ascending order.
// Callers iterate the returned list, so they may add and remove members
// as they go.
//
// bwlint:hotpath
func (s Set) AppendTo(dst []int32, lo, hi int) []int32 {
	if lo >= hi {
		return dst
	}
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		word := s[w]
		if word == 0 {
			continue
		}
		for word &= span(w, lo, hi); word != 0; word &= word - 1 {
			// bwlint:allocok amortized: the list grows to the peak member count, then sticks
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// NextClear returns the lowest non-member in [lo, hi), or -1.
func (s Set) NextClear(lo, hi int) int {
	if lo >= hi {
		return -1
	}
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		if free := ^s[w] & span(w, lo, hi); free != 0 {
			return w<<6 + bits.TrailingZeros64(free)
		}
	}
	return -1
}

// ClearRange removes every member in [lo, hi).
func (s Set) ClearRange(lo, hi int) {
	if lo >= hi {
		return
	}
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		s[w] &^= span(w, lo, hi)
	}
}
