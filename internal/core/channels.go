package core

import (
	"slices"

	"dynbw/internal/bitset"
	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// channels is the per-session state the three multi-session policies
// share: each session's regular and overflow allocation and the virtual
// queue on each — and with it the steps of Figures 4 and 5 that work on
// that state (PHASE, TEST, REDUCE, the spill), which Phased and
// Continuous run with B_O fixed and Combined runs inside each global
// stage with B_O = Bon. A session's four words are one 32-byte record,
// so a step that reads a scattered session touches one cache line.
//
// Between stage events (RESET, global reset, bon-grow — the rare events
// the theorems count, which rewrite every session and stay O(k)) only a
// live session's state can move: one with bits in a virtual queue or an
// overflow allocation still to withdraw. The policies do their per-tick
// and per-phase work over the live set alone, keep Σ bir as a running sum
// rather than re-adding it, and report which rates moved, so a round costs
// what its live sessions cost. The rates in force are the caller's: the
// kernel passes its vector in, and only the dense Rates entry keeps one
// of its own. The set is a bitset because it is walked in session order:
// observer events come out exactly as they did when every loop ran over
// all k sessions.
type channels struct {
	do   bw.Tick
	sess []session
	// sumBir is Σ bir, kept on every write.
	sumBir bw.Rate
	// live holds every session with qr, qo or bio above zero. Sessions
	// join when bits arrive and leave in advance; one a stage event
	// zeroed stays until then, which is harmless — every branch below is
	// a no-op on an all-zero session.
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

// session is one session's record, 32 bytes (TestSlotRecordSizes).
type session struct {
	bir, bio bw.Rate
	qr, qo   bw.Bits
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

// setShares starts a stage: every session's regular allocation becomes
// share.
func (c *channels) setShares(share bw.Rate) {
	for i := range c.sess {
		c.sess[i].bir = share
	}
	c.sumBir = share * bw.Rate(len(c.sess))
	c.stale = true
}

// raise grants session i one more share of the regular channel.
func (c *channels) raise(i int32, share bw.Rate) {
	c.sess[i].bir += share
	c.sumBir += share
}

// touch notes that session i's allocation was written this tick.
func (c *channels) touch(i int32) {
	c.touched.Add(int(i))
}

// list returns the live sessions in ascending order; the list is valid
// until the next call.
func (c *channels) list() []int32 {
	c.members = c.live.AppendTo(c.members[:0], 0, len(c.sess))
	return c.members
}

// arrive adds the tick's arrivals to the regular queues.
func (c *channels) arrive(active []int32, arrived []bw.Bits) {
	for j, i := range active {
		if a := arrived[j]; a != 0 {
			c.sess[i].qr += a
			c.live.Add(int(i))
		}
	}
}

// leave empties session i's virtual queues: the session ended and the
// bits they stood for were dropped with it. What was allotted for those
// bits is withdrawn by the algorithm's own next step — the PHASE that
// finds the queue drained, the REDUCE already on the wheel — exactly as if
// they had been served, so a session's departure is not a stage event.
func (c *channels) leave(i int) {
	c.sess[i].qr, c.sess[i].qo = 0, 0
}

// phase is the PHASE step of Figure 4 over the live sessions, decided on
// the queues as the previous phase left them: a session whose regular
// allocation drains its regular queue within D_O gives up its overflow
// allocation; any other is raised by share, and its backlog moves to the
// overflow channel with an allocation sized to drain it within D_O. It
// returns how many sessions of the first kind still had overflow bits
// queued, which Claim 8 says is none.
func (c *channels) phase(t bw.Tick, share bw.Rate, o obs.Observer) (violations int) {
	for _, i := range c.list() {
		s := &c.sess[i]
		old := s.bir + s.bio
		if s.qr <= bw.Volume(s.bir, c.do) {
			if s.qo > 0 {
				violations++
			}
			if s.bio == 0 {
				continue
			}
			s.bio = 0
			c.touch(i)
			if o != nil {
				o.Event(obs.Event{Type: obs.EventRenegotiateDown, Tick: t, Session: int(i),
					OldRate: old, NewRate: s.bir, Rule: "phase-drain"})
			}
			continue
		}
		hadOverflow := s.bio > 0
		c.raise(i, share)
		s.qo += s.qr
		s.qr = 0
		s.bio = bw.RateOver(s.qo, c.do)
		c.touch(i)
		if o != nil {
			o.Event(obs.Event{Type: obs.EventRenegotiateUp, Tick: t, Session: int(i),
				OldRate: old, NewRate: s.bir + s.bio, Rule: "phase-raise"})
			if !hadOverflow && s.bio > 0 {
				o.Event(obs.Event{Type: obs.EventOverflow, Tick: t, Session: int(i),
					NewRate: s.bio, Rule: "phase-spill"})
			}
		}
	}
	return violations
}

// flush ends a phased stage: every regular queue moves to the overflow
// channel, which is sized to drain it within D_O. A session that is not
// live has both queues empty and no overflow allocation, and flushing it
// would leave it so; the stage start that follows rewrites every rate.
func (c *channels) flush() {
	for _, i := range c.list() {
		s := &c.sess[i]
		s.qo += s.qr
		s.qr = 0
		s.bio = bw.RateOver(s.qo, c.do)
	}
}

// spill moves session i's regular queue to the overflow channel and
// grants a temporary overflow allocation, withdrawn D_O ticks later.
func (c *channels) spill(i int32, t bw.Tick) {
	s := &c.sess[i]
	q := s.qr
	if q == 0 {
		return
	}
	s.qo += q
	s.qr = 0
	grant := bw.RateOver(q, c.do)
	s.bio += grant
	c.touch(i)
	c.reduce.add(i, grant, t+c.do)
}

// spillAll ends a continuous stage: only a live session has a regular
// queue to spill.
func (c *channels) spillAll(t bw.Tick) {
	for _, i := range c.list() {
		c.spill(i, t)
	}
}

// withdraw applies the REDUCE operations that mature at tick t.
func (c *channels) withdraw(t bw.Tick, o obs.Observer) {
	for _, e := range c.reduce.take(t) {
		i := e.session
		s := &c.sess[i]
		old := s.bir + s.bio
		s.bio -= e.amt
		if s.bio < 0 {
			s.bio = 0
		}
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
func (c *channels) test(t bw.Tick, share bw.Rate, active []int32, arrived []bw.Bits, o obs.Observer) (grew bool) {
	for j, i := range active {
		if arrived[j] == 0 {
			continue
		}
		s := &c.sess[i]
		s.qr += arrived[j]
		c.live.Add(int(i))
		if s.qr <= bw.Volume(s.bir, c.do) {
			continue
		}
		old := s.bir + s.bio
		hadOverflow := s.bio > 0
		c.raise(i, share)
		c.spill(i, t)
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

// advance serves each live session's virtual queues, each channel its
// own, and retires the sessions left with nothing.
func (c *channels) advance() {
	for _, i := range c.list() {
		s := &c.sess[i]
		s.qo -= bw.Min(s.qo, s.bio)
		s.qr -= bw.Min(s.qr, s.bir)
		if s.qr == 0 && s.qo == 0 && s.bio == 0 {
			c.live.Remove(int(i))
		}
	}
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
