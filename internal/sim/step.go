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
// the active slots and nothing else, finding them through the set's
// summary level, and tells the allocator of the ones with arrivals
// alone. A slot that only drains is served and nothing else: a policy
// that holds a session's allocation fixed between its events knows the
// queue's course from its own accounting. So a round costs its arrivals
// and its busy slots' serve, whatever the size of the table, and a round
// with neither costs a few word reads.
//
// Nor need such a round ask a policy that names its next event (Next,
// see SparseAllocator) before that tick: Round.Due.
//
// A service seats its sessions (Seat, Unseat), so a gateway shard and a
// route.Run link pick a slot and end a tenancy by the same code; a
// simulation seats no one, its k sessions holding slots 0..k-1 throughout.
//
// A Slots value is a view: copies and prefix views share storage. Its
// methods take a *Slots, so a round, a DATA or a STATS read copies
// nothing of it. It is not safe for concurrent use.
type Slots struct {
	slots []slot
	rates []bw.Rate
	// active and seated are the whole table's sets; slot i is bit i.
	active, seated bitset.Set
	run            *running
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
	// due is the first tick whose round must ask the allocator even if
	// the active set is empty: the allocator's Next after a quiet round,
	// the next tick after any other.
	due bw.Tick
	// tenants counts the seated slots, and free is a slot below which
	// every slot is seated: Seat's first-fit scan starts there, and an
	// Unseat below it lowers it.
	tenants, free int
	// visit lists the active slots for the round's two passes, and in is
	// its compact input to the allocator: the slots that received bits,
	// and the bits each received.
	visit []int32
	in    Compact
}

// NewSlots returns k empty slots.
func NewSlots(k int) Slots {
	return Slots{
		slots:  make([]slot, k),
		rates:  make([]bw.Rate, k),
		active: bitset.New(k),
		seated: bitset.New(k),
		run:    &running{},
	}
}

// Len returns the number of slots in the view.
func (s *Slots) Len() int { return len(s.slots) }

// prefix returns the view of the first k slots: a runner's table for a
// run of fewer sessions than it has grown to. The view keeps its own
// running total and seat count, so take it once and step it every round;
// stepping a table through both a view and its parent is not supported.
func (s *Slots) prefix(k int) Slots {
	v := Slots{
		slots:  s.slots[:k],
		rates:  s.rates[:k],
		active: s.active,
		seated: s.seated,
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

// Reset empties and unseats every slot while keeping the queues' storage.
func (s *Slots) Reset() {
	for i := range s.slots {
		sl := &s.slots[i]
		sl.q.Reset()
		sl.pending, sl.changes = 0, 0
	}
	clear(s.rates)
	s.active.ClearRange(0, len(s.slots))
	s.seated.ClearRange(0, len(s.slots))
	s.run.total, s.run.tenants, s.run.free, s.run.due = 0, 0, 0, 0
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

// Seat gives a new tenant the lowest free slot i, vacated, and returns
// what the slot accrued while it stood free: rate changes only, which a
// stage start made and which are not the tenant's. ok is false when every
// slot is seated.
func (s *Slots) Seat() (i int, free Tenancy, ok bool) {
	run := s.run
	if i = s.seated.NextClear(run.free, len(s.slots)); i < 0 {
		run.free = len(s.slots)
		return 0, Tenancy{}, false
	}
	s.seated.Add(i)
	run.tenants, run.free = run.tenants+1, i+1
	return i, s.vacate(i), true
}

// Unseat ends the tenancy of seated slot i and returns what it amounted
// to: the slot is freed, alloc is told Leave(i) when it keeps state per
// session, and the slot is vacated.
func (s *Slots) Unseat(i int, alloc SparseAllocator) Tenancy {
	s.seated.Remove(i)
	s.run.tenants, s.run.free = s.run.tenants-1, min(s.run.free, i)
	if p, ok := alloc.(interface{ Leave(i int) }); ok {
		p.Leave(i)
	}
	return s.vacate(i)
}

// Seated reports whether slot i has a tenant.
func (s *Slots) Seated(i int) bool { return s.seated.Has(i) }

// Tenants returns the number of seated slots.
func (s *Slots) Tenants() int { return s.run.tenants }

// vacate ends slot i's tenancy and returns what it amounted to: the bits
// still pending or queued are dropped, the served, max-delay and change
// counters return to zero and the slot leaves the active set, so the next
// session to take the slot starts with nothing of this one's. The
// last-applied rate stays: it is the allocator's output for the slot, not
// a property of the session.
func (s *Slots) vacate(i int) Tenancy {
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

// Round is what one Step did, summed over the slots. The caller owns
// it and hands the same one to every Step, which overwrites every field.
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
	// Due is the first tick at which a round with no slot to visit still
	// asks the allocator: until then Step returns on an empty active set
	// without calling it, since no rate can move. It is t+1 after a round
	// that visited a slot, moved a rate or failed, and the allocator's
	// Next(t) after a quiet one, when it has that method.
	Due bw.Tick
}

// Step runs the round for tick t in two walks over the active slots and
// reports it in r.
// The first moves each one's pending arrivals into its queue, as far as
// MaxBacklog lets them. alloc, told of the slots that received bits and
// nothing else, picks the rates; the rates that changed are applied and
// counted. The second serves each active queue at its rate, and a slot
// whose queue empties leaves the active set. Ticks must be nondecreasing
// across calls.
//
// An allocator that breaks its contract — a change of a session the
// view does not have, a negative rate, or a different number of
// sessions and rates — is reported as an error before any queue is
// served. Every reported change is checked before any is applied, so
// the round's arrivals are enqueued (and reported in Round.Arrived),
// every slot keeps its previous rate and count, and every visited slot
// stays backlogged.
//
// A round with no active slot before the last round's Due is quiet: it
// reports nothing arrived, served or changed, and alloc is not called.
// Due is alloc's, so slots go from one allocator to another only across
// a Reset.
func (s *Slots) Step(t bw.Tick, alloc SparseAllocator, r *Round) error {
	run, slots, applied := s.run, s.slots, s.rates
	run.visit = s.active.AppendTo(run.visit[:0], 0, len(slots))
	// r is reused from round to round: every field is written, here or
	// below, before the round can fail.
	r.Rates, r.Total, r.Changes, r.Served = applied, run.total, 0, 0
	r.Active, r.Backlogged, r.Due = len(run.visit), len(run.visit), run.due
	if len(run.visit) == 0 && t < run.due {
		r.Arrived, r.Policed = 0, 0
		return nil
	}
	run.due = t + 1
	r.Due = run.due
	// The walks keep their sums and lists in locals: a store through a
	// slot could alias a field, so the compiler would write each back
	// every slot.
	arrived, policed, sessions, got := bw.Bits(0), bw.Bits(0), run.in.idx[:0], run.in.bits[:0]
	for _, i := range run.visit {
		sl := &slots[i]
		a := sl.pending
		if a == 0 {
			continue // draining: nothing for the allocator
		}
		sl.pending = 0
		if room := MaxBacklog - sl.q.Bits(); a > room {
			policed += a - room
			a = room
		}
		if a == 0 {
			continue // policed whole: the queue is full
		}
		sl.q.Push(t, a)
		sessions = append(sessions, i)
		got = append(got, a)
		arrived += a
	}
	run.in.idx, run.in.bits = sessions, got
	r.Arrived, r.Policed = arrived, policed
	changed, rates := alloc.RatesActive(t, sessions, got, applied)
	if len(rates) != len(changed) {
		return fmt.Errorf("sim: allocator reports %d rates for %d changed sessions at tick %d", len(rates), len(changed), t)
	}
	for j, i := range changed {
		if uint(i) >= uint(len(applied)) {
			return fmt.Errorf("sim: allocator reports a change of session %d of %d at tick %d", i, len(applied), t)
		}
		if rates[j] < 0 {
			return fmt.Errorf("sim: session %d negative rate %d at tick %d", i, rates[j], t)
		}
	}
	moved := 0
	for j, i := range changed {
		if rate := rates[j]; rate != applied[i] {
			run.total += rate - applied[i]
			applied[i] = rate
			slots[i].changes++
			moved++
		}
	}
	r.Total, r.Changes = run.total, moved
	if moved == 0 && len(run.visit) == 0 {
		if n, ok := alloc.(interface{ Next(t bw.Tick) bw.Tick }); ok {
			run.due = n.Next(t)
			r.Due = run.due
		}
	}
	served, backlogged := bw.Bits(0), r.Backlogged
	for _, i := range run.visit {
		q := &slots[i].q
		served += q.Serve(t, applied[i])
		if q.Bits() == 0 {
			s.active.Remove(int(i))
			backlogged--
		}
	}
	r.Served, r.Backlogged = served, backlogged
	return nil
}
