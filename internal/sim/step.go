package sim

import (
	"fmt"

	"dynbw/internal/bitset"
	"dynbw/internal/bw"
	"dynbw/internal/queue"
)

// This file is the step kernel: the paper's per-tick round — arrivals
// join the FIFO queue, the allocator picks rates, the queue is served,
// rate changes are counted — written once, for k sessions (Slots.Step,
// over the sessions that have work). A single session is one slot. The
// simulator's runners, adversary.Duel and the live gateway's shards all
// run Slots.Step; nothing else pushes into or serves a queue.

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
// A slot's queue, pending bits and change count sit together in one
// 64-byte record, so a round that visits a scattered slot touches one
// cache line of the record vector (Go page-aligns an allocation over
// 32 KB, so on any table that size the records align to lines) and one
// of the rate vector. The rates stay a vector of their own: Round.Rates
// hands it out whole, and the policies read it as the rates applied.
//
// Beside the per-slot state sits the active set: one bit per slot, set
// while the slot has pending arrivals or a non-empty queue. Step visits
// the active slots and nothing else, and finds them through the set's
// summary level, so a round costs what its busy sessions cost, whatever
// the size of the table, and a round with none costs a few word reads.
//
// A Slots value is a view: copies and prefix views share storage. Its
// methods take a *Slots, so a round, a DATA or a STATS read copies
// nothing of it. It is not safe for concurrent use.
type Slots struct {
	slots []slot
	rates []bw.Rate
	// active is the whole table's set; slot i is bit i.
	active bitset.Set
	run    *running
}

// slot is the record of one slot's own words: 48 bytes of queue and two
// words beside it, 64 bytes (TestSlotRecordSizes).
type slot struct {
	q queue.FIFO
	// pending is the bits handed to the slot since the last round.
	pending bw.Bits
	// changes counts the slot's rate changes.
	changes int
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
		slots:  make([]slot, k),
		rates:  make([]bw.Rate, k),
		active: bitset.New(k),
		run:    &running{},
	}
}

// Len returns the number of slots in the view.
func (s *Slots) Len() int { return len(s.slots) }

// prefix returns the view of the first k slots: a runner's table for a
// run of fewer sessions than it has grown to. The view keeps its own
// running total, so take it once and step it every round; stepping a
// table through both a view and its parent is not supported.
func (s *Slots) prefix(k int) Slots {
	v := Slots{
		slots:  s.slots[:k],
		rates:  s.rates[:k],
		active: s.active,
		run:    &running{},
	}
	for _, r := range v.rates {
		v.run.total += r
	}
	return v
}

// Queue returns slot i's queue, for reading its counters.
func (s *Slots) Queue(i int) *queue.FIFO { return &s.slots[i].q }

// Pending returns the bits slot i was handed since the last round.
func (s *Slots) Pending(i int) bw.Bits { return s.slots[i].pending }

// Rate returns the rate applied to slot i on the most recent round.
func (s *Slots) Rate(i int) bw.Rate { return s.rates[i] }

// Changes returns how many times slot i's rate has changed.
func (s *Slots) Changes(i int) int { return s.slots[i].changes }

// Add hands slot i bits that arrived since the last round; the next Step
// moves them into its queue. At most MaxBacklog bits wait for a round:
// what does not fit is dropped, and Add returns how much that was. (Step
// polices the queue itself against the same cap, so that Add, which runs
// for every DATA message, reads nothing but the pending cell.)
func (s *Slots) Add(i int, bits bw.Bits) (dropped bw.Bits) {
	sl := &s.slots[i]
	if room := MaxBacklog - sl.pending; bits > room {
		dropped = bits - room
		bits = room
	}
	if bits > 0 {
		sl.pending += bits
		s.active.Add(i)
	}
	return dropped
}

// Reset empties every slot while keeping the queues' storage.
func (s *Slots) Reset() {
	for i := range s.slots {
		sl := &s.slots[i]
		sl.q.Reset()
		sl.pending, sl.changes = 0, 0
	}
	clear(s.rates)
	s.active.ClearRange(0, len(s.slots))
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
// last-applied rate stays: it is the allocator's output for the slot, not
// a property of the session. Only a service calls it: a simulated session
// lasts the whole run.
func (s *Slots) Vacate(i int) Tenancy {
	sl := &s.slots[i]
	t := Tenancy{
		Served:   sl.q.Served(),
		Dropped:  sl.pending + sl.q.Bits(),
		MaxDelay: sl.q.MaxDelay(),
		Changes:  sl.changes,
	}
	sl.q.Reset()
	sl.pending, sl.changes = 0, 0
	s.active.Remove(i)
	return t
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
func (s *Slots) Step(t bw.Tick, alloc SparseAllocator) (Round, error) {
	in := &s.run.in
	in.reset()
	in.idx = s.active.AppendTo(in.idx, 0, len(s.slots))
	r := Round{Rates: s.rates, Total: s.run.total, Active: len(in.idx), Backlogged: len(in.idx)}
	for _, i := range in.idx {
		sl := &s.slots[i]
		a := sl.pending
		sl.pending = 0
		if room := MaxBacklog - sl.q.Bits(); a > room {
			r.Policed += a - room
			a = room
		}
		sl.q.Push(t, a)
		in.arrived = append(in.arrived, a)
		in.queued = append(in.queued, sl.q.Bits())
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
			s.slots[i].changes++
			r.Changes++
		}
	}
	r.Total = s.run.total
	for _, i := range in.idx {
		q := &s.slots[i].q
		r.Served += q.Serve(t, s.rates[i])
		if q.Bits() == 0 {
			s.active.Remove(int(i))
			r.Backlogged--
		}
	}
	return r, nil
}
