package bitset

import (
	"slices"
	"testing"

	"dynbw/internal/rng"
)

// checkSummary fails unless every summary bit says exactly whether its
// word is non-zero, and no summary bit lies past the last word.
func checkSummary(t *testing.T, s Set, after string) {
	t.Helper()
	for w, word := range s.words {
		if got := s.sum[w>>6]&(1<<(uint(w)&63)) != 0; got != (word != 0) {
			t.Fatalf("after %s: summary bit %d = %v, word = %#x", after, w, got, word)
		}
	}
	if tail := len(s.words) & 63; tail != 0 && s.sum[len(s.sum)-1]>>uint(tail) != 0 {
		t.Fatalf("after %s: summary bits set past word %d", after, len(s.words))
	}
}

// TestAgainstMap checks every operation against a map[int]bool over
// random members and random, mostly unaligned, ranges, on a set wide
// enough for three summary words — so ranges start, end and sit inside
// summary words as they do member words — and checks after every write
// that the summary level holds exactly the non-zero words.
func TestAgainstMap(t *testing.T) {
	const n = 2*64*64 + 333 // neither level ends on a word boundary
	src := rng.New(11)
	s := New(n)
	ref := map[int]bool{}
	// Members cluster in a few stretches, so that most words — and some
	// whole summary words — stay empty, as in a table that is mostly idle.
	member := func() int {
		if src.Intn(4) == 0 {
			return src.Intn(n)
		}
		return (src.Intn(3)*(64*64+700) + src.Intn(200)) % n
	}
	for step := 0; step < 6000; step++ {
		i := member()
		switch src.Intn(3) {
		case 0:
			s.Remove(i)
			delete(ref, i)
			checkSummary(t, s, "Remove")
		default:
			s.Add(i)
			ref[i] = true
			checkSummary(t, s, "Add")
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
		if step%40 == 0 {
			hi = min(n, lo+src.Intn(300)) // a short range, inside one summary word or just across two
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
			checkSummary(t, s, "ClearRange")
			if got := s.AppendTo(nil, 0, n); len(got) != len(ref) {
				t.Fatalf("after ClearRange [%d,%d): %d members, want %d", lo, hi, len(got), len(ref))
			}
		}
	}
}

// TestAppendToWarmZeroAlloc: listing into a slice that has held the
// members before allocates nothing, whatever the range.
func TestAppendToWarmZeroAlloc(t *testing.T) {
	const n = 100_000
	s := New(n)
	for i := 0; i < n; i += 97 {
		s.Add(i)
	}
	dst := s.AppendTo(nil, 0, n)
	if avg := testing.AllocsPerRun(100, func() {
		dst = s.AppendTo(dst[:0], 0, n)
		dst = s.AppendTo(dst[:0], 12_500, 25_000)
	}); avg != 0 {
		t.Errorf("AppendTo into a warm dst allocates %.2f objects, want 0", avg)
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
