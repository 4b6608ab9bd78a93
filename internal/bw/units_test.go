package bw

import (
	"testing"
	"testing/quick"
)

func TestCeilDiv(t *testing.T) {
	tests := []struct {
		a, b, want int64
	}{
		{0, 1, 0},
		{1, 1, 1},
		{1, 2, 1},
		{2, 2, 1},
		{3, 2, 2},
		{10, 3, 4},
		{9, 3, 3},
		{-5, 3, 0},
		{1, 1000000, 1},
		{1000000007, 3, 333333336},
	}
	for _, tt := range tests {
		if got := CeilDiv(tt.a, tt.b); got != tt.want {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestCeilDivPanicsOnZeroDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilDiv(1, 0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestCeilDivProperty(t *testing.T) {
	// ceil(a/b) is the unique q with (q-1)*b < a <= q*b for a > 0.
	f := func(a int64, b int64) bool {
		if a < 0 {
			a = -a
		}
		if b <= 0 {
			b = -b + 1
		}
		a %= 1 << 40
		b = b%(1<<20) + 1
		q := CeilDiv(a, b)
		if a == 0 {
			return q == 0
		}
		return (q-1)*b < a && a <= q*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNextPow2(t *testing.T) {
	tests := []struct {
		v, want int64
	}{
		{-3, 1},
		{0, 1},
		{1, 1},
		{2, 2},
		{3, 4},
		{4, 4},
		{5, 8},
		{1023, 1024},
		{1024, 1024},
		{1025, 2048},
		{1 << 40, 1 << 40},
		{(1 << 40) + 1, 1 << 41},
	}
	for _, tt := range tests {
		if got := NextPow2(tt.v); got != tt.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestNextPow2Property(t *testing.T) {
	// NextPow2(v) is a power of two, >= v, and NextPow2(v)/2 < v for v > 1.
	f := func(v int64) bool {
		v %= 1 << 50
		if v < 0 {
			v = -v
		}
		p := NextPow2(v)
		if !IsPow2(p) || p < v {
			return false
		}
		return v <= 1 || p/2 < v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []int64{1, 2, 4, 8, 1 << 30, 1 << 62} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false, want true", v)
		}
	}
	for _, v := range []int64{-4, -1, 0, 3, 5, 6, 7, 9, (1 << 30) + 1} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true, want false", v)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	tests := []struct {
		v    int64
		want int
	}{
		{1, 0},
		{2, 1},
		{3, 2},
		{4, 2},
		{5, 3},
		{8, 3},
		{9, 4},
		{1024, 10},
		{1025, 11},
	}
	for _, tt := range tests {
		if got := Log2Ceil(tt.v); got != tt.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestLog2Floor(t *testing.T) {
	tests := []struct {
		v    int64
		want int
	}{
		{1, 0},
		{2, 1},
		{3, 1},
		{4, 2},
		{7, 2},
		{8, 3},
		{1024, 10},
		{2047, 10},
	}
	for _, tt := range tests {
		if got := Log2Floor(tt.v); got != tt.want {
			t.Errorf("Log2Floor(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestVolume(t *testing.T) {
	tests := []struct {
		r    Rate
		d    Tick
		want Bits
	}{
		{0, 10, 0},
		{5, 1, 5},
		{8, 4, 32},
		{1, 1 << 40, 1 << 40},
	}
	for _, tt := range tests {
		if got := Volume(tt.r, tt.d); got != tt.want {
			t.Errorf("Volume(%d, %d) = %d, want %d", tt.r, tt.d, got, tt.want)
		}
	}
}

func TestRateOver(t *testing.T) {
	tests := []struct {
		q    Bits
		d    Tick
		want Rate
	}{
		{0, 5, 0},
		{10, 5, 2},
		{11, 5, 3},
		{1, 8, 1},
	}
	for _, tt := range tests {
		if got := RateOver(tt.q, tt.d); got != tt.want {
			t.Errorf("RateOver(%d, %d) = %d, want %d", tt.q, tt.d, got, tt.want)
		}
	}
	// RateOver is exactly CeilDiv with unit-bearing arguments.
	if RateOver(17, 4) != CeilDiv(17, 4) {
		t.Error("RateOver disagrees with CeilDiv")
	}
}
