package sim

import "dynbw/internal/bw"

// SparseAllocator is the form of a multi-session policy the step kernel
// runs: a round tells it only of the sessions that received bits, and
// the answer says which rates moved, so a round over a table whose
// sessions are mostly idle, or only draining, costs what its arrivals
// cost.
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

// Sparse returns the form of alloc the kernel steps the table s with:
// alloc itself when it implements SparseAllocator, as the paper's
// policies do, and otherwise an adapter that spreads the round's
// arrivals over a full-length vector, reads the queue lengths from s,
// calls Rates and diffs the answer against the applied rates — O(k) per
// round, which is what a dense policy costs anyway.
func Sparse(alloc MultiAllocator, s *Slots) SparseAllocator {
	if sa, ok := alloc.(SparseAllocator); ok {
		return sa
	}
	d := &denseAdapter{}
	d.reset(alloc, s)
	return d
}

type denseAdapter struct {
	alloc           MultiAllocator
	slots           *Slots
	arrived, queued []bw.Bits // all zero between calls
	busy            []int32   // the slots whose queue length was written
	changed         []int32
	moved           []bw.Rate // the new rates of the changed sessions
}

// reset puts alloc over the table s behind the adapter, reusing its
// storage.
func (d *denseAdapter) reset(alloc MultiAllocator, s *Slots) {
	d.alloc, d.slots = alloc, s
	k := s.Len()
	if cap(d.arrived) < k {
		d.arrived, d.queued = make([]bw.Bits, k), make([]bw.Bits, k)
	}
	d.arrived, d.queued = d.arrived[:k], d.queued[:k]
}

// RatesActive runs between the kernel's two walks: every slot with bits
// queued, this tick's arrivals included, is in the table's active set, so
// the vectors Rates sees are the ones a walk over all k would build.
func (d *denseAdapter) RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	s := d.slots
	for j, i := range arrived {
		d.arrived[i] = bits[j]
	}
	d.busy = s.active.AppendTo(d.busy[:0], 0, s.Len())
	for _, i := range d.busy {
		d.queued[i] = s.slots[i].q.Bits()
	}
	out := d.alloc.Rates(t, d.arrived, d.queued)
	for _, i := range arrived {
		d.arrived[i] = 0
	}
	for _, i := range d.busy {
		d.queued[i] = 0
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
