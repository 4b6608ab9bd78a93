package trace

import (
	"errors"
	"testing"
	"testing/quick"

	"dynbw/internal/bw"
)

func TestNewRejectsNegative(t *testing.T) {
	_, err := New([]bw.Bits{1, -2, 3})
	if !errors.Is(err, ErrNegativeArrival) {
		t.Fatalf("err = %v, want ErrNegativeArrival", err)
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := []bw.Bits{1, 2, 3}
	tr := MustNew(in)
	in[0] = 99
	if tr.At(0) != 1 {
		t.Error("New did not copy its input")
	}
}

func TestWindowAndTotal(t *testing.T) {
	tr := MustNew([]bw.Bits{5, 0, 3, 7, 2})
	tests := []struct {
		a, b bw.Tick
		want bw.Bits
	}{
		{0, 5, 17},
		{0, 0, 0},
		{0, 1, 5},
		{1, 4, 10},
		{4, 5, 2},
		{-3, 2, 5},
		{3, 100, 9},
		{4, 2, 0},
	}
	for _, tt := range tests {
		if got := tr.Window(tt.a, tt.b); got != tt.want {
			t.Errorf("Window(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
	if tr.Total() != 17 {
		t.Errorf("Total = %d", tr.Total())
	}
}

func TestAtOutOfRange(t *testing.T) {
	tr := MustNew([]bw.Bits{4})
	if tr.At(-1) != 0 || tr.At(1) != 0 {
		t.Error("At out of range should be 0")
	}
	if tr.At(0) != 4 {
		t.Error("At(0) wrong")
	}
}

func TestPeakAndMean(t *testing.T) {
	tr := MustNew([]bw.Bits{1, 9, 2, 2})
	if tr.Peak() != 9 {
		t.Errorf("Peak = %d", tr.Peak())
	}
	if tr.MeanCeil() != 4 { // 14/4 = 3.5 -> 4
		t.Errorf("MeanCeil = %d", tr.MeanCeil())
	}
	empty := MustNew(nil)
	if empty.MeanCeil() != 0 || empty.Peak() != 0 {
		t.Error("empty trace peak/mean should be 0")
	}
}

func TestSum(t *testing.T) {
	a := MustNew([]bw.Bits{1, 1})
	b := MustNew([]bw.Bits{2, 2, 2})
	s := Sum(a, b)
	want := []bw.Bits{3, 3, 2}
	for i, w := range want {
		if got := s.At(bw.Tick(i)); got != w {
			t.Errorf("Sum At(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestMinBandwidthForDelay(t *testing.T) {
	tests := []struct {
		name     string
		arrivals []bw.Bits
		d        bw.Tick
		want     bw.Rate
	}{
		{name: "empty", arrivals: nil, d: 2, want: 0},
		{name: "single burst no slack", arrivals: []bw.Bits{10}, d: 0, want: 10},
		{name: "single burst with slack", arrivals: []bw.Bits{10}, d: 4, want: 2},
		{name: "steady", arrivals: []bw.Bits{3, 3, 3, 3}, d: 0, want: 3},
		{name: "two bursts", arrivals: []bw.Bits{8, 0, 0, 8}, d: 1, want: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := MustNew(tt.arrivals)
			if got := tr.MinBandwidthForDelay(tt.d); got != tt.want {
				t.Errorf("MinBandwidthForDelay(%d) = %d, want %d", tt.d, got, tt.want)
			}
		})
	}
}

func TestServeableWith(t *testing.T) {
	tr := MustNew([]bw.Bits{8, 0, 0, 8})
	if !tr.ServeableWith(4, 1) {
		t.Error("rate 4, delay 1 should serve")
	}
	if tr.ServeableWith(3, 1) {
		t.Error("rate 3, delay 1 should not serve")
	}
	if !tr.ServeableWith(8, 0) {
		t.Error("rate 8, delay 0 should serve")
	}
	if tr.ServeableWith(-1, 1) || tr.ServeableWith(4, -1) {
		t.Error("negative parameters must be infeasible")
	}
}

// Property: MinBandwidthForDelay is exactly the feasibility threshold —
// the returned rate serves the trace, and one less does not.
func TestMinBandwidthThresholdProperty(t *testing.T) {
	f := func(raw []uint8, dRaw uint8) bool {
		if len(raw) > 40 {
			raw = raw[:40]
		}
		arrivals := make([]bw.Bits, len(raw))
		for i, v := range raw {
			arrivals[i] = bw.Bits(v % 32)
		}
		d := bw.Tick(dRaw % 8)
		tr := MustNew(arrivals)
		need := tr.MinBandwidthForDelay(d)
		if !tr.ServeableWith(need, d) {
			return false
		}
		if need > 0 && tr.ServeableWith(need-1, d) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: window sums agree with brute force.
func TestWindowProperty(t *testing.T) {
	f := func(raw []uint8, aRaw, bRaw uint8) bool {
		arrivals := make([]bw.Bits, len(raw))
		for i, v := range raw {
			arrivals[i] = bw.Bits(v)
		}
		tr := MustNew(arrivals)
		n := len(arrivals)
		if n == 0 {
			return tr.Window(0, 1) == 0
		}
		a := bw.Tick(int(aRaw) % n)
		b := bw.Tick(int(bRaw)%n + 1)
		var sum bw.Bits
		for i := a; i < b && i < bw.Tick(n); i++ {
			sum += arrivals[i]
		}
		return tr.Window(a, b) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSatisfiesClaim9(t *testing.T) {
	// Arrivals at rate <= b always satisfy the bound.
	tr := MustNew([]bw.Bits{3, 3, 3, 3})
	if !tr.SatisfiesClaim9(3, 0) {
		t.Error("steady rate-3 traffic should satisfy Claim 9 with b=3, d=0")
	}
	// A burst of (d+1)*b + 1 in one tick violates it.
	tr2 := MustNew([]bw.Bits{0, 10, 0})
	if tr2.SatisfiesClaim9(3, 2) {
		t.Error("burst 10 with b=3, d=2 should violate (1+2)*3=9 bound")
	}
	if !tr2.SatisfiesClaim9(3, 3) {
		t.Error("burst 10 with b=3, d=3 should satisfy (1+3)*3=12 bound")
	}
}

// Property: if a trace is serveable by rate b with delay d, it satisfies
// Claim 9's necessary condition for (b, d).
func TestClaim9NecessaryProperty(t *testing.T) {
	f := func(raw []uint8, bRaw, dRaw uint8) bool {
		if len(raw) > 30 {
			raw = raw[:30]
		}
		arrivals := make([]bw.Bits, len(raw))
		for i, v := range raw {
			arrivals[i] = bw.Bits(v % 16)
		}
		tr := MustNew(arrivals)
		b := bw.Rate(bRaw%8 + 1)
		d := bw.Tick(dRaw % 6)
		if !tr.ServeableWith(b, d) {
			return true // nothing to check
		}
		return tr.SatisfiesClaim9(b, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWindow(b *testing.B) {
	arrivals := make([]bw.Bits, 1<<16)
	for i := range arrivals {
		arrivals[i] = bw.Bits(i % 101)
	}
	tr := MustNew(arrivals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := bw.Tick(i % (1 << 15))
		_ = tr.Window(a, a+512)
	}
}
