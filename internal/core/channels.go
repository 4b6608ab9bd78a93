package core

import (
	"slices"

	"dynbw/internal/bitset"
	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// channels is the per-session state of the multi-session policies: each
// session's regular and overflow allocation and the virtual queue on
// each — and with it the steps of Figures 4 and 5 that work on that state
// (PHASE, TEST, REDUCE, the spill), which Phased and Continuous run, with
// B_O fixed or, inside Combined, re-staged with B_O = Bon at each local
// stage. A session's four words are one 32-byte record,
// so a step that reads a scattered session touches one cache line.
//
// Between its events a session's allocation is fixed, so its virtual
// queues only drain, and the record holds each queue as a drain line
// (see session) that no tick has to walk. A round reaches the sessions
// with arrivals, the REDUCEs due, a phase boundary's or a stage end's
// live sessions, and — at a stage event (RESET, global reset, bon-grow:
// the rare events the theorems count) — all k. The policies keep Σ bir
// as a running sum rather than re-adding it and report which rates
// moved, so a round costs what its events cost. The rates in force are
// the caller's: the kernel passes its vector in, and only the dense
// Rates entry keeps one of its own. The live set is a bitset because it
// is walked in session order: observer events come out exactly as they
// did when every loop ran over all k sessions.
type channels struct {
	do   bw.Tick
	sess []session
	// epoch is the tick the drain lines count from, and since how far
	// the current tick lies past it. begin and the walks over the live
	// sessions keep since at most D_O.
	epoch, since bw.Tick
	// sumBir is Σ bir, kept on every write.
	sumBir bw.Rate
	// live holds every session whose lines may read above zero or whose
	// bio is above zero. Sessions join when bits arrive and leave at the
	// next walk that finds them drained (sweep), which zeroes their
	// lines: a session outside live reads empty under any epoch. One a
	// stage event zeroed stays until then, which is harmless — every
	// branch below is a no-op on an all-zero session.
	live    bitset.Set
	members []int32 // live, listed for one pass
	// touched holds the sessions whose allocation was written this tick;
	// stale says a stage event rewrote all of them.
	touched bitset.Set
	stale   bool
	// changed and moved are the answer finish builds: the sessions whose
	// rate moved and their new rates.
	changed []int32
	moved   []bw.Rate
	// out is the vector the dense Rates entry returns, allocated on its
	// first call.
	out []bw.Rate
	// reduce holds the pending REDUCEs of the continuous algorithm.
	reduce reduceWheel
	// in backs the dense Rates entry.
	in sim.Compact
}

// session is one session's record, 32 bytes (TestSlotRecordSizes). Its
// virtual queues are drain lines: at the start of tick epoch+d the
// regular queue holds max(0, vr − bir·d) bits and the overflow queue
// max(0, vo − bio·d). Under a fixed rate that is exact — q −= min(q, r)
// applied d times leaves max(0, q − d·r) — so a tick that writes neither
// a queue nor an allocation of the session leaves its record as it was.
// Every write goes through at and put, which rebase the lines through the
// current tick under the allocations written.
//
// The lines count from the epoch, not from tick 0, because from tick 0
// the products overflow on a gateway that stays up. A session's bir
// reaches 3·B_O + k (a PHASE or TEST tick raises each session at most
// once before the stage ends on Σ bir > 2·B_O), so bir·t passes 2^63 near
// t = 2^63/(3·B_O + k): 2^41 ticks at B_O = 2^20. Its bio, the sum of the
// grants that drain spilled bits within D_O, reaches MaxBacklog — what
// the kernel lets one tick hand a session — under a flooding client, so
// bio·t passes 2^63 near t = 2^23, two hours of 1 ms ticks. The policies
// are called once a tick, and begin keeps d at most D_O+1 (a phase
// boundary or a sweep moves the epoch), so no line holds more than a
// queue plus rate·(D_O+1): for bir, about the Volume(bir, D_O) that PHASE
// and TEST compare against anyway; for bio, the bits spilled plus D_O+1
// a grant.
type session struct {
	bir, bio bw.Rate
	vr, vo   bw.Bits
}

func newChannels(k int, do bw.Tick) channels {
	return channels{
		do:      do,
		sess:    make([]session, k),
		live:    bitset.New(k),
		touched: bitset.New(k),
		reduce:  newReduceWheel(do),
	}
}

// begin starts tick t. An epoch more than D_O back moves to t: the
// continuous algorithm's, which no phase boundary moves, every D_O+1
// ticks.
func (c *channels) begin(t bw.Tick) {
	c.since = t - c.epoch
	if c.since > c.do {
		c.sweep(t)
	}
}

// at returns session s's virtual queues at the start of the current tick.
func (c *channels) at(s *session) (qr, qo bw.Bits) {
	return max(0, s.vr-bw.Volume(s.bir, c.since)), max(0, s.vo-bw.Volume(s.bio, c.since))
}

// put writes session s's virtual queues as qr and qo at the current
// tick, under the allocations s holds now: the lines' rebase.
func (c *channels) put(s *session, qr, qo bw.Bits) {
	s.vr = qr + bw.Volume(s.bir, c.since)
	s.vo = qo + bw.Volume(s.bio, c.since)
}

// sweep moves the epoch to tick t: each live session's lines are rebased
// to start there, and a session found drained — both queues empty and no
// overflow allocation — leaves live with its lines zeroed. It returns the
// sessions still live, in ascending order; the list is valid until the
// next call.
func (c *channels) sweep(t bw.Tick) []int32 {
	c.members = c.live.AppendTo(c.members[:0], 0, len(c.sess))
	n := 0
	for _, i := range c.members {
		s := &c.sess[i]
		qr, qo := c.at(s)
		s.vr, s.vo = qr, qo // a line at d = 0 is its queue
		if qr == 0 && qo == 0 && s.bio == 0 {
			c.live.Remove(int(i))
			continue
		}
		c.members[n] = i
		n++
	}
	c.epoch, c.since = t, 0
	c.members = c.members[:n]
	return c.members
}

// setShares starts a stage at tick t: every session's regular allocation
// becomes share, and every line is rebased there, so the epoch is t.
func (c *channels) setShares(t bw.Tick, share bw.Rate) {
	for i := range c.sess {
		s := &c.sess[i]
		s.vr, s.vo = c.at(s)
		s.bir = share
	}
	c.epoch, c.since = t, 0
	c.sumBir = share * bw.Rate(len(c.sess))
	c.stale = true
}

// raise grants session s one more share of the regular channel; the
// caller rebases its lines.
func (c *channels) raise(s *session, share bw.Rate) {
	s.bir += share
	c.sumBir += share
}

// touch notes that session i's allocation was written this tick.
func (c *channels) touch(i int32) {
	c.touched.Add(int(i))
}

// arrive adds the tick's arrivals to the regular queues: a line whose
// queue is empty restarts at the current tick.
func (c *channels) arrive(arrived []int32, bits []bw.Bits) {
	sess, since := c.sess, c.since // not reloaded after every store
	for j, i := range arrived {
		s := &sess[i]
		s.vr = max(s.vr, bw.Volume(s.bir, since)) + bits[j]
		c.live.Add(int(i))
	}
}

// leave empties session i's virtual queues: the session ended and the
// bits they stood for were dropped with it. What was allotted for those
// bits is withdrawn by the algorithm's own next step — the PHASE that
// finds the queue drained, the REDUCE already on the wheel — exactly as if
// they had been served, so a session's departure is not a stage event.
func (c *channels) leave(i int) {
	c.sess[i].vr, c.sess[i].vo = 0, 0
}

// phase is the PHASE step of Figure 4 over the live sessions, decided on
// the queues as the previous phase left them: a session whose regular
// allocation drains its regular queue within D_O gives up its overflow
// allocation; any other is raised by share, and its backlog moves to the
// overflow channel with an allocation sized to drain it within D_O. It
// returns how many sessions of the first kind still had overflow bits
// queued, which Claim 8 says is none. The walk moves the epoch to t.
func (c *channels) phase(t bw.Tick, share bw.Rate, o obs.Observer) (violations int) {
	for _, i := range c.sweep(t) {
		s := &c.sess[i]
		qr, qo := c.at(s)
		old := s.bir + s.bio
		if qr <= bw.Volume(s.bir, c.do) {
			if qo > 0 {
				violations++
			}
			if s.bio == 0 {
				continue
			}
			s.bio = 0
			c.put(s, qr, qo)
			c.touch(i)
			if o != nil {
				o.Event(obs.Event{Type: obs.EventRenegotiateDown, Tick: t, Session: int(i),
					OldRate: old, NewRate: s.bir, Rule: "phase-drain"})
			}
			continue
		}
		hadOverflow := s.bio > 0
		c.raise(s, share)
		qo += qr
		s.bio = bw.RateOver(qo, c.do)
		c.put(s, 0, qo)
		c.touch(i)
		if o != nil {
			// The raise can come with a smaller overflow grant than the
			// one it replaces, so the net rate moves either way, or not.
			if r := s.bir + s.bio; r != old {
				o.Event(renegotiation(t, int(i), old, r, "phase-raise"))
			}
			if !hadOverflow && s.bio > 0 {
				o.Event(obs.Event{Type: obs.EventOverflow, Tick: t, Session: int(i),
					NewRate: s.bio, Rule: "phase-spill"})
			}
		}
	}
	return violations
}

// flush ends a phased stage at tick t: every regular queue moves to the
// overflow channel, which is sized to drain it within D_O. A session that
// is not live has both queues empty and no overflow allocation, and
// flushing it would leave it so; the stage start that follows rewrites
// every rate.
func (c *channels) flush(t bw.Tick) {
	for _, i := range c.sweep(t) {
		s := &c.sess[i]
		qr, qo := c.at(s)
		qo += qr
		s.bio = bw.RateOver(qo, c.do)
		c.put(s, 0, qo)
	}
}

// spill moves session i's regular queue, qr > 0 bits, to the overflow
// channel, whose queue holds qo, and grants a temporary overflow
// allocation, withdrawn D_O ticks later.
func (c *channels) spill(i int32, t bw.Tick, qr, qo bw.Bits) {
	s := &c.sess[i]
	grant := bw.RateOver(qr, c.do)
	s.bio += grant
	c.put(s, 0, qo+qr)
	c.touch(i)
	c.reduce.add(i, grant, t+c.do)
}

// spillAll ends a continuous stage: only a live session has a regular
// queue to spill.
func (c *channels) spillAll(t bw.Tick) {
	for _, i := range c.sweep(t) {
		if qr, qo := c.at(&c.sess[i]); qr > 0 {
			c.spill(i, t, qr, qo)
		}
	}
}

// withdraw applies the REDUCE operations that mature at tick t.
func (c *channels) withdraw(t bw.Tick, o obs.Observer) {
	for _, e := range c.reduce.take(t) {
		i := e.session
		s := &c.sess[i]
		qr, qo := c.at(s)
		old := s.bir + s.bio
		s.bio = max(0, s.bio-e.amt)
		c.put(s, qr, qo)
		c.touch(i)
		if o != nil {
			o.Event(obs.Event{Type: obs.EventRenegotiateDown, Tick: t, Session: int(i),
				OldRate: old, NewRate: s.bir + s.bio, Rule: "reduce"})
		}
	}
}

// test adds the tick's arrivals to the regular queues and runs TEST(i) of
// Figure 5 on each session that received some: one whose queue now
// exceeds what its regular allocation drains in D_O is raised by share
// and spilled. It reports whether any session was raised.
func (c *channels) test(t bw.Tick, share bw.Rate, arrived []int32, bits []bw.Bits, o obs.Observer) (grew bool) {
	for j, i := range arrived {
		if bits[j] == 0 {
			continue
		}
		s := &c.sess[i]
		qr, qo := c.at(s)
		qr += bits[j]
		c.live.Add(int(i))
		if qr <= bw.Volume(s.bir, c.do) {
			c.put(s, qr, qo)
			continue
		}
		old := s.bir + s.bio
		hadOverflow := s.bio > 0
		c.raise(s, share)
		c.spill(i, t, qr, qo)
		grew = true
		if o != nil {
			o.Event(obs.Event{Type: obs.EventRenegotiateUp, Tick: t, Session: int(i),
				OldRate: old, NewRate: s.bir + s.bio, Rule: "test-spill"})
			if !hadOverflow && s.bio > 0 {
				o.Event(obs.Event{Type: obs.EventOverflow, Tick: t, Session: int(i),
					NewRate: s.bio, Rule: "test-spill"})
			}
		}
	}
	return grew
}

// finish returns the sessions whose rate — bir[i] + bio[i], plus
// extra[i] when extra is given — differs from applied[i], with their new
// rates. Only the sessions written this tick can have moved, unless a
// stage event rewrote them all.
func (c *channels) finish(extra, applied []bw.Rate) ([]int32, []bw.Rate) {
	c.changed, c.moved = c.changed[:0], c.moved[:0]
	if c.stale {
		for i := range c.sess {
			c.settle(int32(i), extra, applied)
		}
		c.touched.ClearRange(0, len(c.sess))
		c.stale = false
		return c.changed, c.moved
	}
	c.members = c.touched.AppendTo(c.members[:0], 0, len(c.sess))
	for _, i := range c.members {
		c.touched.Remove(int(i))
		c.settle(i, extra, applied)
	}
	return c.changed, c.moved
}

func (c *channels) settle(i int32, extra, applied []bw.Rate) {
	r := c.sess[i].bir + c.sess[i].bio
	if extra != nil {
		r += extra[i]
	}
	if r != applied[i] {
		c.changed = append(c.changed, i)
		c.moved = append(c.moved, r)
	}
}

// dense returns the vector the dense Rates entry keeps in place of the
// kernel's, allocating it on the first call.
func (c *channels) dense() []bw.Rate {
	if c.out == nil {
		c.out = make([]bw.Rate, len(c.sess))
	}
	return c.out
}

// fold applies a round's changes to the dense vector and returns it.
func (c *channels) fold(changed []int32, rates []bw.Rate) []bw.Rate {
	for j, i := range changed {
		c.out[i] = rates[j]
	}
	return c.out
}

// reduction withdraws amt of a session's overflow allocation.
type reduction struct {
	session int32
	amt     bw.Rate
}

func bySession(a, b reduction) int { return int(a.session) - int(b.session) }

// reduceWheel holds the continuous algorithm's pending REDUCE
// operations. Every one is scheduled exactly D_O ticks ahead and the
// policy is called once per tick, so D_O buckets indexed by due tick mod
// D_O hold them all, and the bucket of the current tick holds exactly
// what matures now.
type reduceWheel struct {
	buckets [][]reduction
	out     []reduction
}

func newReduceWheel(do bw.Tick) reduceWheel {
	return reduceWheel{buckets: make([][]reduction, do)}
}

// add schedules a REDUCE of session i by amt at tick due.
func (w *reduceWheel) add(i int32, amt bw.Rate, due bw.Tick) {
	b := &w.buckets[due%bw.Tick(len(w.buckets))]
	*b = append(*b, reduction{session: i, amt: amt})
}

// next returns the earliest tick after t whose bucket holds a REDUCE, or
// t+D_O+1 when none does. Every REDUCE still held matures within D_O
// ticks of the last take, tick t's.
func (w *reduceWheel) next(t bw.Tick) bw.Tick {
	n := bw.Tick(len(w.buckets))
	for d := bw.Tick(1); d <= n; d++ {
		if len(w.buckets[(t+d)%n]) > 0 {
			return t + d
		}
	}
	return t + n + 1
}

// take empties tick t's bucket and returns its REDUCEs in session order,
// those of one session merged into one. The result is valid until the
// next take.
func (w *reduceWheel) take(t bw.Tick) []reduction {
	b := &w.buckets[t%bw.Tick(len(w.buckets))]
	w.out, *b = *b, w.out[:0]
	ascending := true
	for j := 1; j < len(w.out); j++ {
		if w.out[j].session <= w.out[j-1].session {
			ascending = false
			break
		}
	}
	if ascending {
		return w.out
	}
	// A tick that ended a stage spilled twice: the sessions TEST raised,
	// then every session with a backlog.
	slices.SortFunc(w.out, bySession)
	n := 0
	for _, e := range w.out[1:] {
		if e.session == w.out[n].session {
			w.out[n].amt += e.amt
			continue
		}
		n++
		w.out[n] = e
	}
	w.out = w.out[:n+1]
	return w.out
}
