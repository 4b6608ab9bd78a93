package core

import (
	"testing"
	"testing/quick"
	"time"

	"dynbw/internal/bw"
)

func TestLowTrackerSimpleCases(t *testing.T) {
	tests := []struct {
		name     string
		d        bw.Tick
		arrivals []bw.Bits
		want     []bw.Rate // low after each tick
	}{
		{
			name:     "single burst",
			d:        4,
			arrivals: []bw.Bits{10},
			want:     []bw.Rate{2}, // 10/(1+4) = 2
		},
		{
			name:     "steady",
			d:        1,
			arrivals: []bw.Bits{4, 4, 4},
			// t0: 4/2=2; t1: max(2, 8/3->3, 4/2=2)=3; t2: 12/4=3, 8/3->3
			want: []bw.Rate{2, 3, 3},
		},
		{
			name:     "monotone despite idle",
			d:        2,
			arrivals: []bw.Bits{9, 0, 0, 0},
			want:     []bw.Rate{3, 3, 3, 3},
		},
		{
			name:     "zero arrivals",
			d:        3,
			arrivals: []bw.Bits{0, 0},
			want:     []bw.Rate{0, 0},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			lt := NewLowTracker(tt.d)
			for i, a := range tt.arrivals {
				if got := lt.Observe(a); got != tt.want[i] {
					t.Errorf("tick %d: low = %d, want %d", i, got, tt.want[i])
				}
			}
		})
	}
}

func TestLowTrackerMatchesNaive(t *testing.T) {
	f := func(raw []uint8, dRaw uint8) bool {
		if len(raw) > 60 {
			raw = raw[:60]
		}
		d := bw.Tick(dRaw%10) + 1
		arrivals := make([]bw.Bits, len(raw))
		for i, v := range raw {
			arrivals[i] = bw.Bits(v)
		}
		lt := NewLowTracker(d)
		var got bw.Rate
		for _, a := range arrivals {
			got = lt.Observe(a)
		}
		if len(arrivals) == 0 {
			return got == 0
		}
		return got == naiveLow(arrivals, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLowTrackerMatchesNaiveLargeValues(t *testing.T) {
	// Exercise the 128-bit slope comparisons with large bit counts.
	f := func(raw []uint32, dRaw uint8) bool {
		if len(raw) > 40 {
			raw = raw[:40]
		}
		d := bw.Tick(dRaw%6) + 1
		arrivals := make([]bw.Bits, len(raw))
		for i, v := range raw {
			arrivals[i] = bw.Bits(v) << 20 // up to ~2^52 total
		}
		lt := NewLowTracker(d)
		var got bw.Rate
		for _, a := range arrivals {
			got = lt.Observe(a)
		}
		if len(arrivals) == 0 {
			return got == 0
		}
		return got == naiveLow(arrivals, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLowTrackerMonotone(t *testing.T) {
	f := func(raw []uint8, dRaw uint8) bool {
		d := bw.Tick(dRaw%10) + 1
		lt := NewLowTracker(d)
		prev := bw.Rate(0)
		for _, v := range raw {
			got := lt.Observe(bw.Bits(v))
			if got < prev {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLowTrackerTicks(t *testing.T) {
	lt := NewLowTracker(2)
	if lt.Ticks() != 0 {
		t.Errorf("Ticks = %d", lt.Ticks())
	}
	lt.Observe(5)
	lt.Observe(0)
	if lt.Ticks() != 2 {
		t.Errorf("Ticks = %d", lt.Ticks())
	}
	if lt.Low() != 2 { // 5/(1+2) = ceil(1.67) = 2
		t.Errorf("Low = %d", lt.Low())
	}
}

// TestLowTrackerFollowsItsHull: the tracker holds the stage's hull, not
// its history. A stage of a million idle ticks, and one of a million
// ticks at a constant rate, each followed by a burst, retain a handful of
// points and allocate nothing once the first few are in place — a
// gateway's stage may never end, and one point a tick forever is a leak
// — while low stays what the definition says. A Reset keeps the storage.
func TestLowTrackerFollowsItsHull(t *testing.T) {
	const d, n = bw.Tick(8), 1_000_000
	for _, tc := range []struct {
		name        string
		rate, burst bw.Bits
		want        bw.Rate
	}{
		// An idle stage: the burst's own tick is the best window.
		{"idle", 0, 900, 100}, // ceil(900 / (1+8))
		// A steady stage: low has crept up to the rate itself, which the
		// burst's one-tick window (7+56 over 1+8 ticks) only equals.
		{"constant", 7, 56, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lt := NewLowTracker(d)
			for i := 0; i < 16; i++ {
				lt.Observe(tc.rate)
			}
			if avg := testing.AllocsPerRun(1, func() {
				for i := 0; i < n; i++ {
					lt.Observe(tc.rate)
				}
			}); avg != 0 {
				t.Errorf("a million more ticks of the stage allocate %.0f times; the tracker is following the clock", avg)
			}
			if got := lt.Observe(tc.rate + tc.burst); got != tc.want {
				t.Errorf("low after the burst = %d, want %d", got, tc.want)
			}
			if len(lt.hull) > 4 || cap(lt.hull) > 16 {
				t.Errorf("%d hull points retained (cap %d) after %d ticks, want at most 4", len(lt.hull), cap(lt.hull), lt.Ticks())
			}
			if avg := testing.AllocsPerRun(10, func() {
				lt.Reset()
				lt.Observe(5)
				lt.Observe(0)
			}); avg != 0 || lt.Low() != 1 || lt.Ticks() != 2 {
				t.Errorf("Reset and two ticks: %.1f allocations, low %d after %d ticks; want 0, 1, 2", avg, lt.Low(), lt.Ticks())
			}
		})
	}
}

func BenchmarkLowTrackerObserve(b *testing.B) {
	lt := NewLowTracker(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lt.Observe(bw.Bits(i % 97))
	}
}

// TestLowTrackerScales validates the convex-hull tracker's amortized
// O(log n) per-tick cost: a million-tick stage must complete in well
// under a second (the naive reference is O(n^2) and would take minutes).
func TestLowTrackerScales(t *testing.T) {
	if testing.Short() {
		t.Skip("long trace")
	}
	lt := NewLowTracker(16)
	start := time.Now()
	const n = 1 << 20
	var last bw.Rate
	for i := 0; i < n; i++ {
		last = lt.Observe(bw.Bits(i%97) + 1)
	}
	if last == 0 {
		t.Fatal("tracker degenerated")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("1M observations took %v; hull tracker should be near-linear", elapsed)
	}
}
