// Package bw defines the basic quantities of the dynamic bandwidth
// allocation model — discrete time ticks, bit counts, and rates — together
// with the arithmetic helpers the algorithms in the paper rely on
// (ceiling division and power-of-two rounding), and the Schedule type that
// records a piecewise-constant bandwidth allocation and counts allocation
// changes, the cost measure the paper minimizes.
package bw

import (
	"fmt"
	"math/bits"
)

type (
	// Tick is a discrete time unit. The simulation is a discrete-time
	// fluid model: at every tick some bits arrive, the allocator picks a
	// rate, and up to that many bits are served.
	Tick = int64

	// Bits is an amount of data.
	Bits = int64

	// Rate is a bandwidth allocation in bits per tick.
	Rate = int64
)

// CeilDiv returns ceil(a/b) for a >= 0, b > 0.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("bw: CeilDiv with non-positive divisor %d", b))
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Volume returns the number of bits a rate moves over an interval.
// It is the canonical rate × ticks crossing: code outside this package
// should call Volume rather than multiply the aliases directly, so the
// unit-hygiene lint can vouch for the dimension.
func Volume(r Rate, d Tick) Bits {
	return r * d
}

// RateOver returns the smallest rate that drains q bits within d ticks,
// ceil(q/d). It is the canonical bits ÷ ticks crossing, the dual of
// Volume.
func RateOver(q Bits, d Tick) Rate {
	return CeilDiv(q, d)
}

// NextPow2 returns the smallest power of two that is >= v. NextPow2(0) = 1.
func NextPow2(v int64) int64 {
	if v <= 1 {
		return 1
	}
	return 1 << uint(bits.Len64(uint64(v-1)))
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int64) bool {
	return v > 0 && v&(v-1) == 0
}

// Log2Ceil returns ceil(log2(v)) for v >= 1.
func Log2Ceil(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// Log2Floor returns floor(log2(v)) for v >= 1.
func Log2Floor(v int64) int {
	if v < 1 {
		panic(fmt.Sprintf("bw: Log2Floor of %d", v))
	}
	return bits.Len64(uint64(v)) - 1
}
