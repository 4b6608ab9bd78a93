package sim

import (
	"fmt"

	"dynbw/internal/bitset"
	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/queue"
)

// This file is the step kernel: the paper's per-tick round — arrivals
// join the FIFO queue, the allocator picks rates, the queue is served,
// rate changes are counted — written once for k sessions (Slots.Step,
// over the sessions that have work) and once for a single session
// (Session.Step). MultiRunner and the live gateway's shards both run
// Slots.Step; Runner and adversary.Duel both run Session.Step. Nothing
// else pushes into or serves a queue.

// MaxBacklog caps the bits a slot's queue may hold, and likewise the
// arrivals that may wait for the next round. Arrival volumes are
// client-declared int64s; without a cap two of them overflow a slot's
// counters. A million slots at the cap, queue and waiting arrivals both,
// still sum below 2^63, so no total the kernel, the policies or the
// gateway keep can overflow either.
const MaxBacklog bw.Bits = 1 << 40

// Slots is the state the k-session round keeps per session: the FIFO
// queue, the arrivals waiting for the next round, the rate applied on
// the most recent round, and a count of rate changes — identical by
// construction to bw.Schedule.Changes() over the same rates, since both
// start from rate 0 and count every transition. That is all a live
// service reads, so it is all a slot holds; the simulator layers its
// analysis state (full schedules, the aggregate) on the rates Step
// returns.
//
// Beside the per-slot state sits the active set: one bit per slot, set
// while the slot has pending arrivals or a non-empty queue. Step visits
// the active slots and nothing else, and finds them through the set's
// summary level, so a round costs what its busy sessions cost, whatever
// the size of the table, and a round with none costs a few word reads.
//
// A Slots value is a view: copies and Slice results share storage. It is
// not safe for concurrent use.
type Slots struct {
	queues  []queue.FIFO
	rates   []bw.Rate
	changes []int
	pending []bw.Bits
	// active is the whole table's set; this view's slot i is bit lo+i.
	active bitset.Set
	lo     int
	run    *running
}

// running is what a view carries from round to round besides the slots.
type running struct {
	// total is the sum of the view's applied rates, kept on every change.
	total bw.Rate
	// in is the round's compact input to the allocator.
	in Compact
}

// NewSlots returns k empty slots.
func NewSlots(k int) Slots {
	return Slots{
		queues:  make([]queue.FIFO, k),
		rates:   make([]bw.Rate, k),
		changes: make([]int, k),
		pending: make([]bw.Bits, k),
		active:  bitset.New(k),
		run:     &running{},
	}
}

// Len returns the number of slots in the view.
func (s Slots) Len() int { return len(s.queues) }

// Slice returns the view of slots [lo, hi): one link's share of a table
// whose links are each served by their own allocator. The view keeps its
// own running total, so take it once and step it every round; stepping a
// table through both a view and its parent is not supported.
func (s Slots) Slice(lo, hi int) Slots {
	v := Slots{
		queues:  s.queues[lo:hi],
		rates:   s.rates[lo:hi],
		changes: s.changes[lo:hi],
		pending: s.pending[lo:hi],
		active:  s.active,
		lo:      s.lo + lo,
		run:     &running{},
	}
	for _, r := range v.rates {
		v.run.total += r
	}
	return v
}

// Queue returns slot i's queue, for reading its counters.
func (s Slots) Queue(i int) *queue.FIFO { return &s.queues[i] }

// Pending returns the bits slot i was handed since the last round.
func (s Slots) Pending(i int) bw.Bits { return s.pending[i] }

// Rate returns the rate applied to slot i on the most recent round.
func (s Slots) Rate(i int) bw.Rate { return s.rates[i] }

// Changes returns how many times slot i's rate has changed.
func (s Slots) Changes(i int) int { return s.changes[i] }

// Add hands slot i bits that arrived since the last round; the next Step
// moves them into its queue. At most MaxBacklog bits wait for a round:
// what does not fit is dropped, and Add returns how much that was. (Step
// polices the queue itself against the same cap, so that Add, which runs
// for every DATA message, reads nothing but the pending cell.)
func (s Slots) Add(i int, bits bw.Bits) (dropped bw.Bits) {
	if room := MaxBacklog - s.pending[i]; bits > room {
		dropped = bits - room
		bits = room
	}
	if bits > 0 {
		s.pending[i] += bits
		s.active.Add(s.lo + i)
	}
	return dropped
}

// Reset empties every slot while keeping the queues' storage.
func (s Slots) Reset() {
	for i := range s.queues {
		s.queues[i].Reset()
	}
	clear(s.rates)
	clear(s.changes)
	clear(s.pending)
	s.active.ClearRange(s.lo, s.lo+len(s.queues))
	s.run.total = 0
}

// Tenancy is what a slot accrued since it was last vacated: under one
// session, or — rate changes only, since a stage start rewrites every
// slot's rate — while it stood free.
type Tenancy struct {
	// Served is the bits transmitted; Dropped the bits still pending or
	// queued when the slot was vacated, which no round will serve.
	Served, Dropped bw.Bits
	MaxDelay        bw.Tick
	Changes         int
}

// Add folds u into t.
func (t *Tenancy) Add(u Tenancy) {
	t.Served += u.Served
	t.Dropped += u.Dropped
	t.Changes += u.Changes
	if u.MaxDelay > t.MaxDelay {
		t.MaxDelay = u.MaxDelay
	}
}

// Vacate ends slot i's tenancy and returns what it amounted to: the bits
// still pending or queued are dropped, the served, max-delay and change
// counters return to zero and the slot leaves the active set, so the next
// session to take the slot starts with nothing of this one's. The
// last-applied rate stays, as in Move. Only a service calls it: a
// simulated session lasts the whole run.
func (s Slots) Vacate(i int) Tenancy {
	q := &s.queues[i]
	t := Tenancy{
		Served:   q.Served(),
		Dropped:  s.pending[i] + q.Bits(),
		MaxDelay: q.MaxDelay(),
		Changes:  s.changes[i],
	}
	q.Reset()
	s.pending[i], s.changes[i] = 0, 0
	s.active.Remove(s.lo + i)
	return t
}

// Move migrates the session in slot src to slot dst, which must be free:
// the queue, the pending arrivals, the place in the active set and the
// session's change count travel with it, so a client polling its count
// never sees it go backwards. The count dst had accumulated is left in
// src rather than dropped, which keeps the sum over all slots equal to
// the number of changes ever applied. The last-applied rates stay put:
// each is the allocator's output for that slot, not a property of the
// session.
func (s Slots) Move(dst, src int) {
	s.queues[dst] = s.queues[src]
	s.queues[src] = queue.FIFO{}
	s.pending[dst], s.pending[src] = s.pending[src], 0
	s.changes[dst], s.changes[src] = s.changes[src], s.changes[dst]
	s.active.Remove(s.lo + dst)
	if s.active.Has(s.lo + src) {
		s.active.Remove(s.lo + src)
		s.active.Add(s.lo + dst)
	}
}

// Round is what one Step did, summed over the slots.
type Round struct {
	// Rates is the rate applied to each slot. It is the kernel's own
	// vector, valid until the next Step.
	Rates []bw.Rate
	// Arrived and Served are the bits enqueued and transmitted; Policed
	// the pending bits dropped, not enqueued, because the slot's queue
	// stood at MaxBacklog.
	Arrived, Served, Policed bw.Bits
	// Total is the bandwidth allotted this round, the sum of Rates.
	Total bw.Rate
	// Changes is the number of slots whose rate changed.
	Changes int
	// Active is the number of slots the round visited: those with
	// arrivals since the last round or bits queued from before it.
	Active int
	// Backlogged is how many of them the round left with bits queued:
	// the slots the next round visits whatever arrives before it.
	Backlogged int
}

// Step runs the round for tick t over the active slots: each one's
// pending arrivals move into its queue, as far as MaxBacklog lets them;
// alloc, told of those slots only, picks the rates; the rates that
// changed are applied and counted; each active queue is served at its
// rate, and a slot whose queue empties leaves the active set. Ticks must
// be nondecreasing across calls.
//
// An allocator that breaks its contract — a change of a session the
// view does not have, a negative rate, or a different number of
// sessions and rates — is reported as an error before any queue is
// served. Every reported change is checked before any is applied, so
// the round's arrivals are enqueued (and reported in Round.Arrived),
// every slot keeps its previous rate and count, and every visited slot
// stays backlogged.
func (s Slots) Step(t bw.Tick, alloc SparseAllocator) (Round, error) {
	in := &s.run.in
	in.reset()
	in.idx = s.active.AppendTo(in.idx, s.lo, s.lo+len(s.queues))
	r := Round{Rates: s.rates, Total: s.run.total, Active: len(in.idx), Backlogged: len(in.idx)}
	for j, g := range in.idx {
		i := int(g) - s.lo
		in.idx[j] = int32(i)
		a := s.pending[i]
		s.pending[i] = 0
		if room := MaxBacklog - s.queues[i].Bits(); a > room {
			r.Policed += a - room
			a = room
		}
		s.queues[i].Push(t, a)
		in.arrived = append(in.arrived, a)
		in.queued = append(in.queued, s.queues[i].Bits())
		r.Arrived += a
	}
	changed, rates := alloc.RatesActive(t, in.idx, in.arrived, in.queued, s.rates)
	if len(rates) != len(changed) {
		return r, fmt.Errorf("sim: allocator reports %d rates for %d changed sessions at tick %d", len(rates), len(changed), t)
	}
	for j, i := range changed {
		if uint(i) >= uint(len(s.rates)) {
			return r, fmt.Errorf("sim: allocator reports a change of session %d of %d at tick %d", i, len(s.rates), t)
		}
		if rates[j] < 0 {
			return r, fmt.Errorf("sim: session %d negative rate %d at tick %d", i, rates[j], t)
		}
	}
	for j, i := range changed {
		if rate := rates[j]; rate != s.rates[i] {
			s.run.total += rate - s.rates[i]
			s.rates[i] = rate
			s.changes[i]++
			r.Changes++
		}
	}
	r.Total = s.run.total
	for _, i := range in.idx {
		q := &s.queues[i]
		r.Served += q.Serve(t, s.rates[i])
		if q.Bits() == 0 {
			s.active.Remove(s.lo + int(i))
			r.Backlogged--
		}
	}
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
func (s *Session) Step(t bw.Tick, arrived bw.Bits, alloc Allocator) (bw.Rate, error) {
	s.hist.Attach(&s.q) // idempotent; keeps the zero value usable
	s.q.Push(t, arrived)
	rate := alloc.Rate(t, arrived, s.q.Bits())
	if rate < 0 {
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
