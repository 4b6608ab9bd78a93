package bw

import (
	"testing"
	"testing/quick"
)

func buildSchedule(rates []Rate) *Schedule {
	s := &Schedule{}
	for t, r := range rates {
		s.Set(Tick(t), r)
	}
	return s
}

func TestScheduleEmpty(t *testing.T) {
	var s Schedule
	if s.Len() != 0 {
		t.Errorf("empty Len = %d", s.Len())
	}
	if s.Changes() != 0 {
		t.Errorf("empty Changes = %d", s.Changes())
	}
	if s.At(0) != 0 || s.At(-1) != 0 || s.At(5) != 0 {
		t.Error("empty At should be 0 everywhere")
	}
	if s.Integral(0, 10) != 0 {
		t.Error("empty Integral should be 0")
	}
	if s.MaxRate() != 0 {
		t.Error("empty MaxRate should be 0")
	}
}

func TestScheduleAt(t *testing.T) {
	s := buildSchedule([]Rate{0, 0, 4, 4, 8, 8, 2, 2})
	want := []Rate{0, 0, 4, 4, 8, 8, 2, 2}
	for i, w := range want {
		if got := s.At(Tick(i)); got != w {
			t.Errorf("At(%d) = %d, want %d", i, got, w)
		}
	}
	if got := s.At(8); got != 0 {
		t.Errorf("At(8) past end = %d, want 0", got)
	}
}

func TestScheduleChanges(t *testing.T) {
	tests := []struct {
		name  string
		rates []Rate
		want  int
	}{
		{name: "all zero", rates: []Rate{0, 0, 0}, want: 0},
		{name: "constant nonzero from start", rates: []Rate{4, 4, 4}, want: 1},
		{name: "zero prefix then constant", rates: []Rate{0, 0, 4, 4}, want: 1},
		{name: "two levels", rates: []Rate{4, 4, 8, 8}, want: 2},
		{name: "up down up", rates: []Rate{2, 4, 2, 4}, want: 4},
		{name: "drop to zero counts", rates: []Rate{4, 0, 0}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := buildSchedule(tt.rates).Changes(); got != tt.want {
				t.Errorf("Changes() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestScheduleIntegral(t *testing.T) {
	s := buildSchedule([]Rate{1, 1, 2, 2, 4, 4})
	tests := []struct {
		a, b Tick
		want Bits
	}{
		{0, 6, 14},
		{0, 0, 0},
		{0, 1, 1},
		{0, 2, 2},
		{1, 3, 3},
		{2, 6, 12},
		{4, 6, 8},
		{-5, 100, 14}, // clamped
		{5, 3, 0},     // inverted
	}
	for _, tt := range tests {
		if got := s.Integral(tt.a, tt.b); got != tt.want {
			t.Errorf("Integral(%d, %d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestScheduleSetOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Set did not panic")
		}
	}()
	s := &Schedule{}
	s.Set(0, 1)
	s.Set(2, 1) // gap
}

func TestScheduleRatesRoundTrip(t *testing.T) {
	rates := []Rate{0, 3, 3, 0, 7, 7, 7, 1}
	s := buildSchedule(rates)
	if s.Len() != Tick(len(rates)) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(rates))
	}
	for i, want := range rates {
		if got := s.At(Tick(i)); got != want {
			t.Errorf("At(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestScheduleSegments(t *testing.T) {
	s := buildSchedule([]Rate{0, 5, 5, 9})
	segs := s.Segments()
	want := []Segment{{Start: 0, Rate: 0}, {Start: 1, Rate: 5}, {Start: 3, Rate: 9}}
	if len(segs) != len(want) {
		t.Fatalf("Segments = %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Errorf("Segments[%d] = %v, want %v", i, segs[i], want[i])
		}
	}
	// Mutating the copy must not affect the schedule.
	segs[0].Rate = 99
	if s.At(0) != 0 {
		t.Error("Segments returned a live reference")
	}
}

func TestScheduleMaxRate(t *testing.T) {
	s := buildSchedule([]Rate{1, 5, 3, 5, 2})
	if got := s.MaxRate(); got != 5 {
		t.Errorf("MaxRate = %d, want 5", got)
	}
}

func TestSum(t *testing.T) {
	a := buildSchedule([]Rate{1, 1, 2})
	b := buildSchedule([]Rate{4, 4, 4, 4})
	total := Sum(a, b)
	want := []Rate{5, 5, 6, 4}
	if total.Len() != Tick(len(want)) {
		t.Fatalf("Sum Len = %d, want %d", total.Len(), len(want))
	}
	for i, w := range want {
		if got := total.At(Tick(i)); got != w {
			t.Errorf("Sum At(%d) = %d, want %d", i, got, w)
		}
	}
}

// Property: for any random rate sequence, the schedule reproduces it
// exactly, its integral matches the brute-force sum, and Changes matches a
// direct transition count.
func TestScheduleProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		rates := make([]Rate, len(raw))
		for i, v := range raw {
			rates[i] = Rate(v % 8) // small alphabet to force repeats
		}
		s := buildSchedule(rates)
		if s.Len() != Tick(len(rates)) {
			return false
		}
		var sum Bits
		changes := 0
		prev := Rate(0)
		for i, r := range rates {
			if s.At(Tick(i)) != r {
				return false
			}
			sum += r
			if r != prev {
				changes++
				prev = r
			}
		}
		if s.Integral(0, Tick(len(rates))) != sum {
			return false
		}
		if s.Changes() != changes {
			return false
		}
		// Window integral spot checks.
		if len(rates) >= 2 {
			mid := Tick(len(rates) / 2)
			var w Bits
			for i := Tick(1); i < mid; i++ {
				w += rates[i]
			}
			if s.Integral(1, mid) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCursorMatchesAtAndIntegral(t *testing.T) {
	// A schedule with irregular segment boundaries, including a leading
	// implicit-zero segment and repeated rates.
	rates := []Rate{0, 0, 3, 3, 3, 7, 7, 1, 1, 1, 1, 0, 0, 5, 5, 2}
	s := buildSchedule(rates)

	// Forward full scan.
	c := s.Cursor()
	for i := Tick(-2); i < s.Len()+2; i++ {
		if got, want := c.At(i), s.At(i); got != want {
			t.Fatalf("forward Cursor.At(%d) = %d, want %d", i, got, want)
		}
	}
	// Backward scan with the same cursor (local, non-monotone access).
	for i := s.Len() + 2; i >= -2; i-- {
		if got, want := c.At(i), s.At(i); got != want {
			t.Fatalf("backward Cursor.At(%d) = %d, want %d", i, got, want)
		}
	}
	// Sliding windows of every size, the metrics access pattern.
	for w := Tick(1); w <= s.Len(); w++ {
		for a := Tick(0); a+w <= s.Len(); a++ {
			if got, want := c.Integral(a, a+w), s.Integral(a, a+w); got != want {
				t.Fatalf("Cursor.Integral(%d, %d) = %d, want %d", a, a+w, got, want)
			}
		}
	}
	// Prefix at every boundary, including clamping past the end.
	for i := Tick(-1); i <= s.Len()+3; i++ {
		if got, want := c.Prefix(i), s.Integral(0, i); got != want {
			t.Fatalf("Cursor.Prefix(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestCursorEmptySchedule(t *testing.T) {
	var s Schedule
	c := s.Cursor()
	if c.At(0) != 0 || c.Prefix(5) != 0 || c.Integral(0, 5) != 0 {
		t.Error("cursor over empty schedule should read 0 everywhere")
	}
}

func TestCursorQuick(t *testing.T) {
	// Property: a cursor driven by an arbitrary query sequence agrees
	// with the binary-search accessors.
	f := func(raw []uint8, queries []int8) bool {
		rates := make([]Rate, len(raw))
		for i, r := range raw {
			rates[i] = Rate(r % 8)
		}
		s := buildSchedule(rates)
		c := s.Cursor()
		for _, q := range queries {
			tk := Tick(q)
			if c.At(tk) != s.At(tk) {
				return false
			}
			if c.Prefix(tk) != s.Integral(0, tk) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleReset(t *testing.T) {
	s := buildSchedule([]Rate{0, 2, 2, 5, 0, 1})
	s.Reset()
	if s.Len() != 0 || s.Changes() != 0 || s.At(0) != 0 || s.Integral(0, 10) != 0 {
		t.Fatalf("Reset schedule not empty: len=%d changes=%d", s.Len(), s.Changes())
	}
	// Rebuilding after Reset must produce an identical schedule.
	rates := []Rate{4, 4, 0, 0, 6, 6, 6, 2}
	fresh := buildSchedule(rates)
	for t2, r := range rates {
		s.Set(Tick(t2), r)
	}
	if s.Changes() != fresh.Changes() || s.Len() != fresh.Len() {
		t.Fatalf("rebuilt schedule differs: changes %d vs %d", s.Changes(), fresh.Changes())
	}
	for i := Tick(0); i < fresh.Len(); i++ {
		if s.At(i) != fresh.At(i) {
			t.Fatalf("rebuilt At(%d) = %d, want %d", i, s.At(i), fresh.At(i))
		}
	}
}

func TestScheduleResetKeepsCapacity(t *testing.T) {
	s := buildSchedule([]Rate{1, 2, 3, 4, 5, 6, 7, 8})
	grown := cap(s.segs)
	s.Reset()
	if cap(s.segs) != grown {
		t.Fatalf("Reset dropped segment capacity: %d, want %d", cap(s.segs), grown)
	}
}
