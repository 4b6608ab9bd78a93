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
// A slot's queue, pending bits, change count and drain line sit together
// in one 64-byte record, so a round that visits a scattered slot touches
// one cache line of the record vector (Go page-aligns an allocation over
// 32 KB, so on any table that size the records align to lines) and one
// of the rate vector. The rates stay a vector of their own: Round.Rates
// hands it out whole, and the policies read it as the rates applied.
//
// Beside the per-slot state sits the active set: one bit per slot, set
// while the slot has pending arrivals. Step visits those slots, finding
// them through the set's summary level, and tells the allocator of them
// alone. A backlogged slot with no arrival is a drain line: in the
// paper's model queue Q is served at the allocated rate, and the rate
// stands until the allocator moves it, so the slot's queue at any tick
// follows from its queue at its last visit, the tick it was served
// through then (its line) and its rate. Step visits such a slot only at
// its events — bits arrive, its rate moves, or its queue empties, which
// a completion wheel lists — and counts what the others serve from the
// sum of their rates. So a round costs its arrivals, its rate changes
// and the queues that empty in it, whatever the size of the table or its
// backlog, and a round with none of them costs a few word reads.
//
// A slot on a drain line is brought up to the last round's tick before
// anything reads or ends it: Queue and Unseat do so, and with them every
// reader of a slot's counters (STATS, the gateway's table, the
// simulator's runner, route.Run, adversary.Duel). An empty queue is on
// no line, and a read of it moves nothing. While any slot is
// backlogged, Step must run every tick.
//
// Nor need a round ask a policy that names its next event (Next, see
// SparseAllocator) before that tick when no bit arrives: Round.Due.
//
// A service seats its sessions (Seat, Unseat), so a gateway shard and a
// route.Run link pick a slot and end a tenancy by the same code; a
// simulation seats no one, its k sessions holding slots 0..k-1 throughout.
//
// A Slots value is a table, and its one owner steps, reads and resets it:
// a copy shares the table's storage. Its methods take a *Slots, so a
// round, a DATA or a STATS read copies nothing of it. It is not safe for
// concurrent use.
type Slots struct {
	slots []slot
	rates []bw.Rate
	// active and seated are sized to the table's capacity; slot i is bit i.
	active, seated bitset.Set
	run            *running
}

// slot is the record of one slot's own words: 40 bytes of queue and
// three words beside it, 64 bytes (TestSlotRecordSizes).
type slot struct {
	q queue.FIFO
	// line is the tick through which the queue stands served. While the
	// queue holds bits under a rate above 0 it is a drain line: the queue
	// at a later tick is the one ServeSpan leaves from line+1 on, and it
	// empties at tick line + ceil(q.Bits()/rate). An empty queue is on no
	// line, and nothing moves its line until bits arrive.
	line bw.Tick
	// pending is the bits handed to the slot since the last round.
	pending bw.Bits
	// changes counts the slot's rate changes.
	changes int
}

// running is what a table carries from round to round besides the slots.
type running struct {
	// total is the sum of the table's applied rates, kept on every change.
	total bw.Rate
	// due is the first tick whose round must ask the allocator even if
	// no bit arrived: the allocator's Next after a round with no arrival
	// and no rate moved, the next tick after any other.
	due bw.Tick
	// last is the tick of the last round that ended: the drain lines
	// stand served through it.
	last bw.Tick
	// backlogged counts the table's slots with bits queued, and drain
	// sums the rates of those on a drain line: the bits they serve a tick.
	backlogged int
	drain      bw.Rate
	// tenants counts the seated slots, and free is a slot below which
	// every slot is seated: Seat's first-fit scan starts there, and an
	// Unseat below it lowers it.
	tenants, free int
	// in is the round's compact input to the allocator: the slots that
	// received bits, and the bits each received. It stands until the next
	// round, which finds the new lines of a round that failed in it.
	in Compact
	// wheel lists the draining slots by the tick each queue empties. It
	// comes last: a round with no backlog reads none of its 1.5 KB.
	wheel wheel
}

// wheelSpan is how many ticks ahead the completion wheel's buckets reach.
const wheelSpan = 64

// wheel is the completion wheel, in the manner of core's reduceWheel:
// bucket d%wheelSpan lists the slots whose queues empty at tick d, or at
// a tick a multiple of wheelSpan after it. An entry is checked against
// the slot when its bucket comes round: a slot that empties then
// completes, one whose line now ends later is moved to that tick's
// bucket, and one on no line any more (vacated, or at rate 0) or on a
// line that ended sooner (listed again for it) is dropped. A draining
// slot always has an entry at or before the tick it empties, and a slot
// gets a new entry only when it starts a line or a rate rise may end its
// line sooner; so the wheel holds about one entry per draining slot,
// however long the slots stay backlogged.
type wheel struct {
	// n counts the entries in the buckets.
	n       int
	buckets [wheelSpan][]int32
}

func (w *wheel) add(i int32, at bw.Tick) {
	b := &w.buckets[at%wheelSpan]
	*b = append(*b, i)
	w.n++
}

// clear empties every bucket, keeping their storage.
func (w *wheel) clear() {
	for b := range w.buckets {
		w.buckets[b] = w.buckets[b][:0]
	}
	w.n = 0
}

// NewSlots returns a table of k empty slots, k its capacity too.
func NewSlots(k int) Slots {
	return Slots{
		slots:  make([]slot, k),
		rates:  make([]bw.Rate, k),
		active: bitset.New(k),
		seated: bitset.New(k),
		run:    &running{last: -1},
	}
}

// Len returns the number of slots in the table.
func (s *Slots) Len() int { return len(s.slots) }

// Queue returns slot i's queue, brought up to the last round's tick, for
// reading its counters. A queue that holds bits is on a drain line and is
// brought up before it is returned (bringUp); an empty one is on no line
// — the round its next bits arrive in restarts one from the tick before
// — so reading it touches its record alone: not the rate vector the
// rounds write, nor the last round's tick. The emptiness test is one
// word, the queue's head, which keeps Queue inlined into a STATS read:
// written with a named result, its inline cost is 79 of the compiler's
// budget of 80.
func (s *Slots) Queue(i int) (q *queue.FIFO) {
	if q = &s.slots[i].q; !q.Empty() {
		s.bringUp(i)
	}
	return
}

// bringUp serves slot i's queue, which holds bits, along its drain line
// through the table's last round: what serveTo(i, last) does, kept out
// of Queue, which a STATS read inlines.
func (s *Slots) bringUp(i int) {
	if sl, last := &s.slots[i], s.run.last; last > sl.line {
		sl.q.ServeSpan(sl.line+1, last, s.rates[i])
		sl.line = last
	}
}

// serveTo serves slot i's queue along its drain line through tick t, a
// tick before the one it empties, unless it stands served through t.
func (s *Slots) serveTo(i int, t bw.Tick) {
	if sl := &s.slots[i]; t > sl.line {
		sl.q.ServeSpan(sl.line+1, t, s.rates[i])
		sl.line = t
	}
}

// ends returns the tick at which slot i's queue empties on its line.
func (s *Slots) ends(i int32) bw.Tick {
	sl := &s.slots[i]
	return sl.line + bw.CeilDiv(sl.q.Bits(), s.rates[i])
}

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

// Reset empties and unseats every slot, keeping the queues' storage and
// any DelayHist attached to them, and makes the table k slots long; k
// above its capacity panics. The next round may be at any tick. Slots
// past a table's length stand empty, so Reset empties the slots of the
// length it had and no more.
func (s *Slots) Reset(k int) {
	for i := range s.slots {
		sl := &s.slots[i]
		sl.q.Reset()
		sl.pending, sl.changes = 0, 0
	}
	clear(s.rates)
	s.active.ClearRange(0, len(s.slots))
	s.seated.ClearRange(0, len(s.slots))
	s.slots, s.rates = s.slots[:k], s.rates[:k]
	run := s.run
	run.total, run.tenants, run.free, run.due, run.last = 0, 0, 0, 0, -1
	run.backlogged, run.drain = 0, 0
	run.wheel.clear()
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
// counters return to zero and the slot leaves the active set and its
// drain line, so the next session to take the slot starts with nothing
// of this one's. The last-applied rate stays: it is the allocator's
// output for the slot, not a property of the session.
func (s *Slots) vacate(i int) Tenancy {
	q := s.Queue(i)
	sl := &s.slots[i]
	t := Tenancy{
		Served:   q.Served(),
		Dropped:  sl.pending + q.Bits(),
		MaxDelay: q.MaxDelay(),
		Changes:  sl.changes,
	}
	if q.Bits() > 0 {
		s.run.backlogged--
		s.run.drain -= s.rates[i]
	}
	q.Reset()
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
	// Arrived and Served are the bits enqueued and transmitted at the
	// round's tick, by every slot, visited or draining; Policed the
	// pending bits dropped, not enqueued, because the slot's queue stood
	// at MaxBacklog.
	Arrived, Served, Policed bw.Bits
	// Total is the bandwidth allotted this round, the sum of Rates.
	Total bw.Rate
	// Changes is the number of slots whose rate changed.
	Changes int
	// Active is the number of slots with work in the round: those with
	// arrivals since the last round or bits queued from before it. It
	// is a count, not a walk: a slot that only drains is served without
	// a visit.
	Active int
	// Backlogged is how many of them the round left with bits queued:
	// the slots whose queues the next round serves whatever arrives
	// before it.
	Backlogged int
	// Due is the first tick at which a round with no arrival still asks
	// the allocator: until then Step does not call it, since no rate can
	// move, and a round with nothing queued either returns at once. It
	// is t+1 after a round that had arrivals, moved a rate or failed, and
	// the allocator's Next(t) after one that asked it and had neither,
	// when it has that method. A round that does not ask leaves it as it
	// was.
	Due bw.Tick
}

// Step runs the round for tick t and reports it in r. It visits the
// slots with pending arrivals, moving each one's bits into its queue as
// far as MaxBacklog lets them; a slot whose queue was empty starts a
// drain line. alloc, told of the slots that received bits and nothing
// else, picks the rates; the rates that changed are applied and counted,
// and a draining slot whose rate moved is visited and put on a new line.
// A new line whose queue empties at t is served then; the completion
// wheel's slots whose queues empty at t are served their last bits and
// leave their lines; every other draining slot is served its rate,
// counted from the lines' sum and not visited. Ticks must increase from
// round to round, by one while any slot is backlogged.
//
// An allocator that breaks its contract — a change of a session the
// table does not have, a negative rate, or a different number of
// sessions and rates — is reported as an error before any rate is
// applied, and no queue is served at t: the round's arrivals are
// enqueued (and reported in Round.Arrived), every slot keeps its
// previous rate and count, and every backlogged slot stays backlogged,
// its line a tick later. Until the allocator has answered, every slot
// stands on its line as after tick t-1 with tick t's arrivals in, so a
// round whose allocator panics leaves the slots readable and counted;
// the next Step ends that round as a failed one before its own.
//
// A round with no arrival before the last round's Due does not ask
// alloc, and with nothing queued either it returns at once, reporting
// nothing arrived, served or changed. Due is alloc's, so slots go from
// one allocator to another only across a Reset.
func (s *Slots) Step(t bw.Tick, alloc SparseAllocator, r *Round) error {
	run, applied := s.run, s.rates
	if run.last < t-1 && run.backlogged > 0 {
		s.stall(t - 1) // the round at t-1 did not end: its allocator panicked
	}
	sessions := s.active.AppendTo(run.in.idx[:0], 0, len(s.slots))
	run.in.idx, run.in.bits = sessions, run.in.bits[:0]
	// r is reused from round to round: every field is written, here or
	// below, before the round can fail.
	r.Rates, r.Total, r.Changes = applied, run.total, 0
	r.Arrived, r.Served, r.Policed = 0, 0, 0
	r.Active, r.Backlogged, r.Due = run.backlogged, run.backlogged, run.due
	ask := len(sessions) > 0 || t >= run.due
	if !ask && run.backlogged == 0 {
		return nil
	}
	if len(sessions) > 0 {
		sessions = s.enqueue(t, sessions, r)
	}
	if ask {
		run.due = t + 1
		r.Due = run.due
		changed, rates := alloc.RatesActive(t, sessions, run.in.bits, applied)
		if !fits(changed, rates, len(applied)) {
			s.stall(t)
			return checkAnswer(t, changed, rates, len(applied))
		}
		moved := 0
		for j, i := range changed {
			rate, was := rates[j], applied[i]
			if rate == was {
				continue
			}
			sl := &s.slots[i]
			if sl.q.Bits() > 0 {
				s.reline(i, t, rate)
			}
			run.total += rate - was
			applied[i] = rate
			sl.changes++
			moved++
		}
		r.Total, r.Changes = run.total, moved
		if moved == 0 && len(sessions) == 0 {
			if nx, ok := alloc.(interface{ Next(t bw.Tick) bw.Tick }); ok {
				run.due = nx.Next(t)
				r.Due = run.due
			}
		}
	}
	run.last = t
	if len(sessions) > 0 {
		r.Served = s.startLines(t, sessions)
	}
	// Every other line serves its rate at t, less what the queues that
	// the wheel lists as emptying at t leave unused.
	if run.backlogged > 0 {
		r.Served += bw.Volume(run.drain, 1)
		if len(run.wheel.buckets[t%wheelSpan]) > 0 {
			r.Served -= s.complete(t)
		}
	}
	if run.backlogged == 0 && run.wheel.n > 0 {
		run.wheel.clear()
	}
	r.Backlogged = run.backlogged
	return nil
}

// enqueue moves the pending bits of the listed slots into their queues,
// as far as MaxBacklog lets them, and reports them in r. A slot whose
// queue was empty starts a drain line from t-1; one that was draining is
// first served along its line through t-1. It returns the slots that
// received bits, compacted to the front of the list, and appends the
// bits each received to the round's input.
func (s *Slots) enqueue(t bw.Tick, sessions []int32, r *Round) []int32 {
	// The walk keeps its sums and lists in locals: a store through a slot
	// could alias a field, so the compiler would write each back every
	// slot.
	run, slots, applied := s.run, s.slots, s.rates
	arrived, policed, got, n := bw.Bits(0), bw.Bits(0), run.in.bits, 0
	backlogged, drain := run.backlogged, run.drain
	for _, i := range sessions {
		s.active.Remove(int(i))
		sl := &slots[i]
		a := sl.pending
		sl.pending = 0
		b := sl.q.Bits()
		if b > 0 && t-1 > sl.line {
			s.serveTo(int(i), t-1)
			b = sl.q.Bits()
		}
		if room := MaxBacklog - b; a > room {
			policed += a - room
			a = room
		}
		if a == 0 {
			continue // policed whole: the queue is full, and stays on its line
		}
		if b == 0 {
			backlogged++
			drain += applied[i]
			sl.line = t - 1
		}
		sl.q.Push(t, a)
		sessions[n] = i
		n++
		got = append(got, a)
		arrived += a
	}
	run.backlogged, run.drain = backlogged, drain
	run.in.idx, run.in.bits = sessions[:n], got
	r.Arrived, r.Policed, r.Active, r.Backlogged = arrived, policed, backlogged, backlogged
	return sessions[:n]
}

// reline puts backlogged slot i, whose rate moves to rate at t, on a new
// line from t-1: the old rate's line ends there. A faster line may end
// before its entry on the completion wheel, so it is listed again, but
// for a new line (its oldest bits arrived at t), which startLines lists
// once every rate is known.
func (s *Slots) reline(i int32, t bw.Tick, rate bw.Rate) {
	was := s.rates[i]
	s.serveTo(int(i), t-1)
	s.run.drain += rate - was
	if sl := &s.slots[i]; rate > was {
		if at, _ := sl.q.Oldest(); at != t {
			s.run.wheel.add(i, sl.line+bw.CeilDiv(sl.q.Bits(), rate))
		}
	}
}

// startLines serves at t the new lines among the slots that received
// bits (those whose oldest bits arrived at t) that empty then, returning
// the bits it served, and lists every other new line on the completion
// wheel, now that its rate is known.
func (s *Slots) startLines(t bw.Tick, sessions []int32) (served bw.Bits) {
	run, slots, applied := s.run, s.slots, s.rates
	drain, backlogged := run.drain, run.backlogged
	for _, i := range sessions {
		sl, rate := &slots[i], applied[i]
		if at, _ := sl.q.Oldest(); at != t || rate == 0 {
			continue
		}
		if b := sl.q.Bits(); b <= bw.Volume(rate, 1) {
			sl.q.Serve(t, rate)
			sl.line = t // served through t: a read of the slot finds nothing to bring up
			served += b
			drain -= rate
			backlogged--
		} else {
			run.wheel.add(i, s.ends(i))
		}
	}
	run.drain, run.backlogged = drain, backlogged
	return served
}

// fits reports whether an allocator's answer for a table of n sessions
// keeps its contract: a rate for each change, each of a session the table
// has, none negative. checkAnswer says how an answer that does not fit
// breaks it; fits is the check a round makes, small enough to inline.
func fits(changed []int32, rates []bw.Rate, n int) bool {
	if len(rates) != len(changed) {
		return false
	}
	for j, i := range changed {
		if uint(i) >= uint(n) || rates[j] < 0 {
			return false
		}
	}
	return true
}

// checkAnswer reports an allocator's answer for a table of n sessions
// that breaks its contract.
func checkAnswer(t bw.Tick, changed []int32, rates []bw.Rate, n int) error {
	if len(rates) != len(changed) {
		return fmt.Errorf("sim: allocator reports %d rates for %d changed sessions at tick %d", len(rates), len(changed), t)
	}
	for j, i := range changed {
		if uint(i) >= uint(n) {
			return fmt.Errorf("sim: allocator reports a change of session %d of %d at tick %d", i, n, t)
		}
		if rates[j] < 0 {
			return fmt.Errorf("sim: session %d negative rate %d at tick %d", i, rates[j], t)
		}
	}
	return nil
}

// complete takes tick t's bucket off the completion wheel: each slot
// whose queue empties at t is served its last bits and leaves its line,
// and complete returns the bits of rate those slots left unused at t. An
// entry of a slot whose line ends later moves to that tick's bucket; any
// other is stale and dropped.
func (s *Slots) complete(t bw.Tick) (unused bw.Bits) {
	run := s.run
	b := &run.wheel.buckets[t%wheelSpan]
	run.wheel.n -= len(*b)
	keep := (*b)[:0]
	for _, i := range *b {
		sl, rate := &s.slots[i], s.rates[i]
		if rate == 0 || sl.q.Bits() == 0 {
			continue
		}
		// left is what the line holds after tick t-1: the queue empties
		// at t when that is more than nothing and at most a tick's rate.
		switch left := sl.q.Bits() - bw.Volume(rate, t-1-sl.line); {
		case left <= 0:
		case left <= bw.Volume(rate, 1):
			sl.q.ServeSpan(sl.line+1, t, rate)
			sl.line = t
			unused += bw.Volume(rate, 1) - left
			run.drain -= rate
			run.backlogged--
		default:
			if end := s.ends(i); end%wheelSpan == t%wheelSpan {
				keep = append(keep, i)
			} else {
				run.wheel.add(i, end)
			}
		}
	}
	*b = keep
	run.wheel.n += len(keep)
	return unused
}

// stall ends the round at t, whose allocator failed or panicked, without
// serving a queue at t: the round's new lines go on the completion
// wheel, every line moves a tick later, and tick t's bucket moves on
// with them.
func (s *Slots) stall(t bw.Tick) {
	w := &s.run.wheel
	for _, i := range s.run.in.idx {
		if at, ok := s.slots[i].q.Oldest(); ok && at == t && s.rates[i] > 0 {
			w.add(i, s.ends(i))
		}
	}
	for b := range w.buckets {
		for _, i := range w.buckets[b] {
			if sl := &s.slots[i]; sl.line < t {
				s.serveTo(int(i), t-1)
				sl.line = t // a duplicate entry finds the line at t, and passes
			}
		}
	}
	s.run.last = t
	s.complete(t)
}

// Completing returns an upper bound on the slots whose queues empty in a
// round at t, a tick after the last round and within 64 of it — which
// with its arrivals and rate changes are the slots that round visits:
// the entries the completion wheel holds for t, or 0 with no backlog.
func (s *Slots) Completing(t bw.Tick) int {
	if s.run.backlogged == 0 {
		return 0
	}
	return len(s.run.wheel.buckets[t%wheelSpan])
}
