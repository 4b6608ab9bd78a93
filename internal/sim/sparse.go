package sim

import "dynbw/internal/bw"

// SparseAllocator is the one form of multi-session policy the step
// kernel runs, the paper's policies and Separate alike: a round tells it
// only of the sessions that received bits, and the answer says which
// rates moved, so a round over a table of mostly idle or draining
// sessions costs what its arrivals cost.
//
// Two methods are optional. Leave(i int) tells a policy that keeps state
// per session that session i ended (Slots.Unseat). Next(t bw.Tick)
// bw.Tick names the earliest tick after t at which the policy's rates
// can move if no bit arrives: after a round with no arrival and no rate
// moved, Step does not call the allocator again before that tick unless
// bits arrive (Round.Due), whatever the slots' queues still drain, since
// a policy keeps its own account of them. A policy whose rates can move on quiet
// ticks by a course it cannot name in advance leaves Next out and is
// asked every tick.
type SparseAllocator interface {
	// RatesActive returns the rate changes at tick t. arrived lists, in
	// ascending order, the sessions that received bits this tick, and
	// bits[j] is what session arrived[j] received. A session not listed
	// received nothing; what it still has queued the policy knows from
	// its own accounting, as the paper's policies keep theirs.
	//
	// applied is the caller's vector of the rates in force, one entry per
	// session; the allocator reads it and must not write it. The answer
	// lists the sessions whose rate now differs from applied, in any
	// order, each once: session changed[j] moves to rates[j], and every
	// other session keeps its applied rate. Both slices are retained by
	// the allocator and valid until the next call.
	RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) (changed []int32, rates []bw.Rate)
}

// Compact is the scratch that holds one round's sparse input: the step
// kernel fills it on its walk over the active set, and a policy's dense
// Rates entry from the full-length vector it was handed. It grows to the
// peak number of sessions with arrivals and is reused from then on.
type Compact struct {
	idx  []int32
	bits []bw.Bits
}

// Collect lists the sessions of the dense vector that received bits, in
// the form RatesActive takes. The result is valid until the next
// Collect.
func (c *Compact) Collect(arrived []bw.Bits) (sessions []int32, bits []bw.Bits) {
	c.idx, c.bits = c.idx[:0], c.bits[:0]
	for i, a := range arrived {
		if a != 0 {
			c.idx = append(c.idx, int32(i))
			c.bits = append(c.bits, a)
		}
	}
	return c.idx, c.bits
}
