package sim

import "dynbw/internal/bw"

// SparseAllocator is the form of a multi-session policy the step kernel
// runs: the round's inputs list only the sessions that have something to
// do, and the answer says which rates moved, so a round over a table
// whose sessions are mostly idle costs what the busy ones cost.
type SparseAllocator interface {
	// RatesActive returns the rate changes at tick t. active lists, in
	// ascending order, every session with arrivals this tick or bits
	// queued; arrived[j] and queued[j] describe session active[j].
	// Sessions not listed arrived nothing and have nothing queued.
	//
	// applied is the caller's vector of the rates in force, one entry per
	// session; the allocator reads it and must not write it. The answer
	// lists the sessions whose rate now differs from applied, in any
	// order, each once: session changed[j] moves to rates[j], and every
	// other session keeps its applied rate. Both slices are retained by
	// the allocator and valid until the next call.
	RatesActive(t bw.Tick, active []int32, arrived, queued []bw.Bits, applied []bw.Rate) (changed []int32, rates []bw.Rate)
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
// full-length vectors, calls Rates and diffs the answer against the
// applied rates — O(k) per round, which is what a dense policy costs
// anyway.
func Sparse(alloc MultiAllocator, k int) SparseAllocator {
	if s, ok := alloc.(SparseAllocator); ok {
		return s
	}
	d := &denseAdapter{}
	d.reset(alloc, k)
	return d
}

type denseAdapter struct {
	alloc           MultiAllocator
	arrived, queued []bw.Bits // all zero between calls
	changed         []int32
	moved           []bw.Rate // the new rates of the changed sessions
}

// reset puts alloc over k sessions behind the adapter, reusing its storage.
func (d *denseAdapter) reset(alloc MultiAllocator, k int) {
	d.alloc = alloc
	if cap(d.arrived) < k {
		d.arrived, d.queued = make([]bw.Bits, k), make([]bw.Bits, k)
	}
	d.arrived, d.queued = d.arrived[:k], d.queued[:k]
}

func (d *denseAdapter) RatesActive(t bw.Tick, active []int32, arrived, queued []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	for j, i := range active {
		d.arrived[i], d.queued[i] = arrived[j], queued[j]
	}
	out := d.alloc.Rates(t, d.arrived, d.queued)
	for _, i := range active {
		d.arrived[i], d.queued[i] = 0, 0
	}
	d.changed, d.moved = d.changed[:0], d.moved[:0]
	if len(out) != len(applied) {
		// Report a session the table does not have: the kernel rejects
		// the round.
		return append(d.changed, int32(max(len(out), len(applied)))), append(d.moved, 0)
	}
	for i, r := range out {
		if r != applied[i] { // a negative rate too, which the kernel rejects
			d.changed = append(d.changed, int32(i))
			d.moved = append(d.moved, r)
		}
	}
	return d.changed, d.moved
}
