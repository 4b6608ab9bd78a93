// Package bitset is a fixed-size set of small non-negative integers, one
// bit each. The step kernel keeps its "has work" and "seated" sets in it,
// and the three multi-session policies theirs: a set that is iterated in
// index order — which an append list is not, and the policies' observer
// events must come out in session order — and that costs a bit, not a
// word, per slot.
//
// The set has two levels. Above the members' words sits a summary, one
// bit per word, set exactly while that word is non-zero; Add, Remove and
// ClearRange keep it so. AppendTo reads the summary first and visits only
// the words it names, so listing an empty range of 12 500 slots reads 4
// words instead of 196, and listing a sparse one costs what its members'
// words cost: an idle shard of a large table is a few word reads to the
// kernel and to each policy, every round. The summary is one word per
// 4 096 members. NextClear looks for a word that is not full, which the
// summary says nothing about, and scans the words as before.
//
// bwlint:deterministic
package bitset

import "math/bits"

// Set holds the members' bits, 64 to a word, under a summary of which
// words are non-zero. Copies share storage.
type Set struct {
	words []uint64
	// sum has bit w set iff words[w] != 0.
	sum []uint64
}

// New returns an empty set over [0, n).
func New(n int) Set {
	nw := (n + 63) / 64
	buf := make([]uint64, nw+(nw+63)/64)
	return Set{words: buf[:nw:nw], sum: buf[nw:]}
}

// Add inserts i.
func (s Set) Add(i int) {
	w := i >> 6
	word := s.words[w]
	s.words[w] = word | 1<<(uint(i)&63)
	if word == 0 {
		s.sum[w>>6] |= 1 << (uint(w) & 63)
	}
}

// Remove deletes i.
func (s Set) Remove(i int) {
	w := i >> 6
	word := s.words[w] &^ (1 << (uint(i) & 63))
	s.words[w] = word
	if word == 0 {
		s.sum[w>>6] &^= 1 << (uint(w) & 63)
	}
}

// Has reports whether i is a member.
func (s Set) Has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// span returns word w's bits that fall inside [lo, hi), given that the
// word overlaps the range. It serves both levels: a summary word's bits
// are words, and a range of words is masked the same way.
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
func (s Set) AppendTo(dst []int32, lo, hi int) []int32 {
	if lo >= hi {
		return dst
	}
	wlo, whi := lo>>6, (hi-1)>>6+1 // the words that overlap the range
	for sw := wlo >> 6; sw <= (whi-1)>>6; sw++ {
		for live := s.sum[sw] & span(sw, wlo, whi); live != 0; live &= live - 1 {
			w := sw<<6 + bits.TrailingZeros64(live)
			for word := s.words[w] & span(w, lo, hi); word != 0; word &= word - 1 {
				dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
			}
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
		if free := ^s.words[w] & span(w, lo, hi); free != 0 {
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
		word := s.words[w] &^ span(w, lo, hi)
		s.words[w] = word
		if word == 0 {
			s.sum[w>>6] &^= 1 << (uint(w) & 63)
		}
	}
}
