package sim

import "dynbw/internal/bw"

// Promise is what a policy guarantees on a feasible input, in the
// paper's terms: each field is the number its tests hold it to, with the
// discrete model's slack folded in. A zero field promises nothing.
type Promise struct {
	// DA bounds every bit's delay, in ticks.
	DA bw.Tick
	// BA bounds the total allocation at every tick.
	BA bw.Rate
	// UA is the utilization floor of Lemma 5's flexible window: at every
	// tick t, some window of 1 to UW ticks ending at t puts at least UA
	// of its allocation to use. It is judged on the policy's total
	// allocation against its total arrivals, as
	// metrics.FlexibleUtilizationMin(arrivals, total, 1, UW) measures it.
	UA float64
	// UW is the longest window UA is judged over.
	UW bw.Tick
}

// Promiser is a policy that states its Promise.
type Promiser interface {
	Promise() Promise
}
