package sim

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/queue"
)

// This file is the step kernel: the paper's per-tick round — arrivals
// join the FIFO queue, the allocator picks rates, the queue is served,
// rate changes are counted — written once for k sessions (Slots.Step)
// and once for a single session (Session.Step). MultiRunner and the live
// gateway's shards both run Slots.Step; Runner and adversary.Duel both
// run Session.Step. Nothing else pushes into or serves a queue.

// Slots is the state the k-session round keeps per session: the FIFO
// queue, the rate applied on the most recent round, and a count of rate
// changes — identical by construction to bw.Schedule.Changes() over the
// same rates, since both start from rate 0 and count every transition.
// That is all a live service reads, so it is all a slot holds; the
// simulator layers its analysis state (full schedules, the aggregate)
// on the rates Step returns.
//
// A Slots value is a view: copies and Slice results share storage. It is
// not safe for concurrent use.
type Slots struct {
	queues  []queue.FIFO
	rates   []bw.Rate
	changes []int
	// Per-round scratch handed to the allocator.
	arrived []bw.Bits
	queued  []bw.Bits
}

// NewSlots returns k empty slots.
func NewSlots(k int) Slots {
	return Slots{
		queues:  make([]queue.FIFO, k), // bwlint:allocok constructor: once per table (MultiRunner: per k growth)
		rates:   make([]bw.Rate, k),    // bwlint:allocok constructor
		changes: make([]int, k),        // bwlint:allocok constructor
		arrived: make([]bw.Bits, k),    // bwlint:allocok constructor
		queued:  make([]bw.Bits, k),    // bwlint:allocok constructor
	}
}

// Slice returns the view of slots [lo, hi): one link's share of a table
// whose links are each served by their own allocator.
func (s Slots) Slice(lo, hi int) Slots {
	return Slots{
		queues:  s.queues[lo:hi],
		rates:   s.rates[lo:hi],
		changes: s.changes[lo:hi],
		arrived: s.arrived[lo:hi],
		queued:  s.queued[lo:hi],
	}
}

// Queue returns slot i's queue, for reading its counters.
func (s Slots) Queue(i int) *queue.FIFO { return &s.queues[i] }

// Rate returns the rate applied to slot i on the most recent round.
func (s Slots) Rate(i int) bw.Rate { return s.rates[i] }

// Changes returns how many times slot i's rate has changed.
func (s Slots) Changes(i int) int { return s.changes[i] }

// Reset empties every slot while keeping the queues' storage.
func (s Slots) Reset() {
	for i := range s.queues {
		s.queues[i].Reset()
	}
	clear(s.rates)
	clear(s.changes)
}

// Move migrates the session in slot src to slot dst, which must be free:
// the queue and the session's change count travel with it, so a client
// polling its count never sees it go backwards. The count dst had
// accumulated is left in src rather than dropped, which keeps the sum
// over all slots equal to the number of changes ever applied. The
// last-applied rates stay put: each is the allocator's output for that
// slot, not a property of the session.
func (s Slots) Move(dst, src int) {
	s.queues[dst] = s.queues[src]
	s.queues[src] = queue.FIFO{}
	s.changes[dst], s.changes[src] = s.changes[src], s.changes[dst]
}

// Round is what one Step did, summed over the slots.
type Round struct {
	// Rates is the allocator's output, one rate per slot. It is the
	// allocator's slice and is only valid until its next Rates call.
	Rates []bw.Rate
	// Arrived and Served are the bits enqueued and transmitted.
	Arrived, Served bw.Bits
	// Total is the bandwidth allotted this round, the sum of Rates.
	Total bw.Rate
	// Changes is the number of slots whose rate changed.
	Changes int
}

// Step runs the round for tick t: pending[i], the bits that arrived for
// slot i since the last round, is moved into slot i's queue and zeroed;
// alloc picks the rates; every queue is served at its rate; changes are
// counted. Ticks must be nondecreasing across calls.
//
// An allocator that breaks its contract — a rate slice of the wrong
// length, or a negative rate — is reported as an error before any queue
// is served: the round's arrivals are enqueued (and reported in
// Round.Arrived), and every slot keeps its previous rate and count.
//
// bwlint:hotpath
func (s Slots) Step(t bw.Tick, alloc MultiAllocator, pending []bw.Bits) (Round, error) {
	var r Round
	for i := range s.queues {
		a := pending[i]
		pending[i] = 0
		s.arrived[i] = a
		s.queues[i].Push(t, a)
		s.queued[i] = s.queues[i].Bits()
		r.Arrived += a
	}
	rates := alloc.Rates(t, s.arrived, s.queued)
	if len(rates) != len(s.queues) {
		// bwlint:allocok cold: allocator contract violation
		return r, fmt.Errorf("sim: allocator returned %d rates, want %d", len(rates), len(s.queues))
	}
	for i, rate := range rates {
		if rate < 0 {
			// bwlint:allocok cold: allocator contract violation
			return r, fmt.Errorf("sim: session %d negative rate %d at tick %d", i, rate, t)
		}
	}
	for i, rate := range rates {
		r.Served += s.queues[i].Serve(t, rate)
		r.Total += rate
		if rate != s.rates[i] {
			s.rates[i] = rate
			s.changes[i]++
			r.Changes++
		}
	}
	r.Rates = rates
	return r, nil
}

// Session is the single-session counterpart of Slots, carrying the
// analysis state a simulated run reports: the full allocation schedule
// and the per-bit delay histogram. The zero value is ready to use; a
// Session must not be copied after its first Step.
type Session struct {
	q     queue.FIFO
	hist  queue.DelayHist
	sched bw.Schedule
}

// Reset clears the session while keeping all grown storage.
func (s *Session) Reset() {
	s.q.Reset()
	s.hist.Reset()
	s.sched.Reset()
}

// Step runs tick t for the session: the arrived bits join the queue,
// alloc picks the rate, the schedule records it and the queue is served.
// Ticks must be consecutive from 0. A negative rate is an error and
// leaves the tick unserved.
//
// bwlint:hotpath
func (s *Session) Step(t bw.Tick, arrived bw.Bits, alloc Allocator) (bw.Rate, error) {
	s.hist.Attach(&s.q) // idempotent; keeps the zero value usable
	s.q.Push(t, arrived)
	rate := alloc.Rate(t, arrived, s.q.Bits())
	if rate < 0 {
		// bwlint:allocok cold: allocator contract violation aborts the run
		return 0, fmt.Errorf("sim: allocator returned negative rate %d at tick %d", rate, t)
	}
	s.sched.Set(t, rate)
	s.q.Serve(t, rate)
	return rate, nil
}

// Queued returns the number of bits waiting in the session's queue.
func (s *Session) Queued() bw.Bits { return s.q.Bits() }

// Schedule returns the allocation recorded so far. It is owned by the
// Session and invalidated by Reset.
func (s *Session) Schedule() *bw.Schedule { return &s.sched }

// Delay summarizes the delays of the bits served so far.
func (s *Session) Delay() metrics.DelayStats {
	return metrics.DelayStats{
		Max:    s.q.MaxDelay(),
		P50:    s.hist.Quantile(0.50),
		P99:    s.hist.Quantile(0.99),
		Served: s.q.Served(),
	}
}
