package bitset

import (
	"slices"
	"testing"

	"dynbw/internal/rng"
)

// TestAgainstMap checks every operation against a map[int]bool over
// random members and random, mostly unaligned, ranges.
func TestAgainstMap(t *testing.T) {
	const n = 333 // not a multiple of 64: the last word is partial
	src := rng.New(11)
	s := New(n)
	ref := map[int]bool{}
	for step := 0; step < 2000; step++ {
		i := src.Intn(n)
		switch src.Intn(3) {
		case 0:
			s.Remove(i)
			delete(ref, i)
		default:
			s.Add(i)
			ref[i] = true
		}
		if s.Has(i) != ref[i] {
			t.Fatalf("step %d: Has(%d) = %v, want %v", step, i, s.Has(i), ref[i])
		}
		if step%20 != 0 {
			continue
		}
		lo, hi := src.Intn(n+1), src.Intn(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		var want []int32
		firstClear := -1
		for j := lo; j < hi; j++ {
			if ref[j] {
				want = append(want, int32(j))
			} else if firstClear < 0 {
				firstClear = j
			}
		}
		if got := s.AppendTo(nil, lo, hi); !slices.Equal(got, want) {
			t.Fatalf("AppendTo [%d,%d) = %v, want %v", lo, hi, got, want)
		}
		if got := s.NextClear(lo, hi); got != firstClear {
			t.Fatalf("NextClear [%d,%d) = %d, want %d", lo, hi, got, firstClear)
		}
		if step%200 == 0 {
			s.ClearRange(lo, hi)
			for j := lo; j < hi; j++ {
				delete(ref, j)
			}
			if got := s.AppendTo(nil, 0, n); len(got) != len(ref) {
				t.Fatalf("after ClearRange [%d,%d): %d members, want %d", lo, hi, len(got), len(ref))
			}
		}
	}
}

func TestWordBoundaries(t *testing.T) {
	s := New(192)
	for _, i := range []int{0, 63, 64, 127, 128, 191} {
		s.Add(i)
	}
	for _, tc := range []struct {
		lo, hi int
		want   []int32
	}{
		{0, 192, []int32{0, 63, 64, 127, 128, 191}},
		{1, 191, []int32{63, 64, 127, 128}},
		{63, 65, []int32{63, 64}},
		{64, 64, nil},
		{65, 127, nil},
		{128, 129, []int32{128}},
	} {
		if got := s.AppendTo(nil, tc.lo, tc.hi); !slices.Equal(got, tc.want) {
			t.Errorf("AppendTo [%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
	full := New(128)
	for i := 0; i < 128; i++ {
		full.Add(i)
	}
	if got := full.NextClear(0, 128); got != -1 {
		t.Errorf("NextClear on a full set = %d", got)
	}
	full.Remove(64)
	if got := full.NextClear(3, 128); got != 64 {
		t.Errorf("NextClear = %d, want 64", got)
	}
	if got := full.NextClear(65, 128); got != -1 {
		t.Errorf("NextClear past the hole = %d", got)
	}
}
