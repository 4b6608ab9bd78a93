package sim

import "dynbw/internal/bw"

// SparseAllocator is the form of a multi-session policy the step kernel
// runs: the round's inputs list only the sessions that have something to
// do, and the answer says which rates moved, so a round over a table
// whose sessions are mostly idle costs what the busy ones cost.
type SparseAllocator interface {
	// RatesActive returns the allocations at tick t. active lists, in
	// ascending order, every session with arrivals this tick or bits
	// queued; arrived[j] and queued[j] describe session active[j].
	// Sessions not listed arrived nothing and have nothing queued.
	//
	// rates has one non-negative entry per session and is retained by the
	// allocator: it is valid until the next call and must not be written.
	// changed lists the sessions whose rate differs from what the
	// previous call returned (every non-zero rate on the first call), in
	// any order; it too is valid until the next call.
	RatesActive(t bw.Tick, active []int32, arrived, queued []bw.Bits) (rates []bw.Rate, changed []int32)
}

// Compact is the scratch that holds one round's sparse inputs: the step
// kernel fills it from its active set, and a policy's dense Rates entry
// fills it from the full-length vectors it was handed. It grows to the
// peak number of busy sessions and is reused from then on.
type Compact struct {
	idx     []int32
	arrived []bw.Bits
	queued  []bw.Bits
}

func (c *Compact) reset() {
	c.idx, c.arrived, c.queued = c.idx[:0], c.arrived[:0], c.queued[:0]
}

func (c *Compact) add(i int32, arrived, queued bw.Bits) {
	c.idx = append(c.idx, i)
	c.arrived = append(c.arrived, arrived)
	c.queued = append(c.queued, queued)
}

// Collect lists the sessions of the dense vectors that have arrivals or
// bits queued, in the form RatesActive takes. The result is valid until
// the next Collect.
func (c *Compact) Collect(arrived, queued []bw.Bits) (active []int32, a, q []bw.Bits) {
	c.reset()
	for i, bits := range arrived {
		if bits != 0 || queued[i] != 0 {
			c.add(int32(i), bits, queued[i])
		}
	}
	return c.idx, c.arrived, c.queued
}

// Sparse returns the form of alloc the kernel steps k slots with: alloc
// itself when it implements SparseAllocator, as the paper's policies do,
// and otherwise an adapter that spreads the round's inputs over
// full-length vectors, calls Rates and diffs the answer against the last
// one — O(k) per round, which is what a dense policy costs anyway.
func Sparse(alloc MultiAllocator, k int) SparseAllocator {
	if s, ok := alloc.(SparseAllocator); ok {
		return s
	}
	return &denseAdapter{
		alloc:   alloc,
		arrived: make([]bw.Bits, k),
		queued:  make([]bw.Bits, k),
		rates:   make([]bw.Rate, k),
	}
}

type denseAdapter struct {
	alloc           MultiAllocator
	arrived, queued []bw.Bits // all zero between calls
	rates           []bw.Rate // the last answer taken over
	changed         []int32
}

func (d *denseAdapter) RatesActive(t bw.Tick, active []int32, arrived, queued []bw.Bits) ([]bw.Rate, []int32) {
	for j, i := range active {
		d.arrived[i], d.queued[i] = arrived[j], queued[j]
	}
	out := d.alloc.Rates(t, d.arrived, d.queued)
	for _, i := range active {
		d.arrived[i], d.queued[i] = 0, 0
	}
	d.changed = d.changed[:0]
	if len(out) != len(d.rates) {
		return out, nil // the kernel rejects the length
	}
	for i, r := range out {
		if r < 0 {
			// Hand the kernel the offending vector untouched, so that it
			// rejects this round and d.rates still mirrors what it applied.
			return out, append(d.changed, int32(i))
		}
	}
	for i, r := range out {
		if r != d.rates[i] {
			d.rates[i] = r
			d.changed = append(d.changed, int32(i))
		}
	}
	return d.rates, d.changed
}
