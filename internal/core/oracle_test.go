package core

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// This file is the reference the sparse policies are tested against: the
// bodies of Phased, Continuous and Combined (with its two inner
// algorithms) as they were when every round streamed over all k sessions,
// under dense* names. TestSparseMatchesDense runs both on the same traces
// and requires the same rates, stats and events. The later edits, each
// made in both: Combined's global-drain event; a PHASE raise's event
// names the direction the net rate moved, and none is emitted when it
// did not move; a GLOBAL RESET's flush takes the tick's arrivals (and the
// phased inner algorithm's overflow allocations); a local stage start
// keeps the overflow allocations; and the inner stage's end is the
// inner algorithm's "stage-reset".

// densePhased is Phased as it stood before the sparse form: every loop
// runs over all k sessions.
type densePhased struct {
	p MultiParams

	resetTick bw.Tick // tick of the most recent RESET
	bir       []bw.Rate
	bio       []bw.Rate
	qr        []bw.Bits // virtual regular queues
	qo        []bw.Bits // virtual overflow queues
	rates     []bw.Rate

	o     obs.Observer
	stats MultiStats
}

var _ sim.MultiAllocator = (*densePhased)(nil)

// newDensePhased returns the phased algorithm configured by p.
func newDensePhased(p MultiParams) (*densePhased, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("phased: %w", err)
	}
	a := &densePhased{
		p:     p,
		bir:   make([]bw.Rate, p.K),
		bio:   make([]bw.Rate, p.K),
		qr:    make([]bw.Bits, p.K),
		qo:    make([]bw.Bits, p.K),
		rates: make([]bw.Rate, p.K),
	}
	a.reset(0)
	return a, nil
}

// SetObserver attaches an allocation-event observer (nil disables).
// Call it before the first Rates call; the policy is not otherwise safe
// for concurrent mutation.
func (a *densePhased) SetObserver(o obs.Observer) { a.o = o }

// reset starts a new stage at tick t: every session gets the base regular
// share and phases restart.
func (a *densePhased) reset(t bw.Tick) {
	share := a.p.Share()
	for i := range a.bir {
		a.bir[i] = share
	}
	a.resetTick = t
	a.stats.Stages++
}

// Rates implements sim.MultiAllocator.
func (a *densePhased) Rates(t bw.Tick, arrived, queued []bw.Bits) []bw.Rate {
	k := a.p.K
	do := a.p.DO

	// PHASE boundary: every DO ticks starting DO after the RESET, decided
	// on the queue state at the end of the previous phase (before this
	// tick's arrivals).
	if t > a.resetTick && (t-a.resetTick)%do == 0 {
		var totalRegular bw.Rate
		for i := 0; i < k; i++ {
			old := a.bir[i] + a.bio[i]
			if a.qr[i] <= bw.Volume(a.bir[i], do) {
				// The regular channel can drain this queue in one phase;
				// the analysis (Claim 8) says the overflow queue is empty.
				if a.qo[i] > 0 {
					a.stats.OverflowViolations++
				}
				a.bio[i] = 0
				if a.o != nil && old > a.bir[i] {
					a.o.Event(obs.Event{Type: obs.EventRenegotiateDown, Tick: t, Session: i,
						OldRate: old, NewRate: a.bir[i], Rule: "phase-drain"})
				}
			} else {
				hadOverflow := a.bio[i] > 0
				a.bir[i] += a.p.Share()
				a.qo[i] += a.qr[i]
				a.qr[i] = 0
				a.bio[i] = bw.RateOver(a.qo[i], do)
				if r := a.bir[i] + a.bio[i]; a.o != nil && r != old {
					typ := obs.EventRenegotiateUp
					if r < old {
						typ = obs.EventRenegotiateDown
					}
					a.o.Event(obs.Event{Type: typ, Tick: t, Session: i,
						OldRate: old, NewRate: r, Rule: "phase-raise"})
				}
				if a.o != nil && !hadOverflow && a.bio[i] > 0 {
					a.o.Event(obs.Event{Type: obs.EventOverflow, Tick: t, Session: i,
						NewRate: a.bio[i], Rule: "phase-spill"})
				}
			}
			totalRegular += a.bir[i]
		}
		if totalRegular > 2*a.p.BO {
			// Stage ends: flush every regular queue to overflow and RESET.
			for i := 0; i < k; i++ {
				a.qo[i] += a.qr[i]
				a.qr[i] = 0
				a.bio[i] = bw.RateOver(a.qo[i], do)
			}
			a.stats.Resets++
			a.reset(t)
			if a.o != nil {
				a.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
					Rule: "stage-reset"})
			}
		}
	}

	for i := 0; i < k; i++ {
		a.qr[i] += arrived[i]
		a.rates[i] = a.bir[i] + a.bio[i]
	}
	// Advance the virtual queues: each channel serves its own queue.
	for i := 0; i < k; i++ {
		a.qo[i] -= min(a.qo[i], a.bio[i])
		a.qr[i] -= min(a.qr[i], a.bir[i])
	}
	out := make([]bw.Rate, k)
	copy(out, a.rates)
	return out
}

// Stats returns the structural counters accumulated so far.
func (a *densePhased) Stats() MultiStats { return a.stats }

// denseContinuous is Continuous before the sparse form, REDUCE maps and all.
type denseContinuous struct {
	p MultiParams

	bir   []bw.Rate
	bio   []bw.Rate
	qr    []bw.Bits
	qo    []bw.Bits
	rates []bw.Rate

	// reductions[i] holds pending REDUCE operations for session i as
	// (tick, amount) pairs: at `tick`, bio[i] -= amount.
	reductions []map[bw.Tick]bw.Rate

	o     obs.Observer
	stats MultiStats
}

var _ sim.MultiAllocator = (*denseContinuous)(nil)

// newDenseContinuous returns the continuous algorithm configured by p.
func newDenseContinuous(p MultiParams) (*denseContinuous, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("continuous: %w", err)
	}
	a := &denseContinuous{
		p:          p,
		bir:        make([]bw.Rate, p.K),
		bio:        make([]bw.Rate, p.K),
		qr:         make([]bw.Bits, p.K),
		qo:         make([]bw.Bits, p.K),
		rates:      make([]bw.Rate, p.K),
		reductions: make([]map[bw.Tick]bw.Rate, p.K),
	}
	for i := range a.reductions {
		a.reductions[i] = make(map[bw.Tick]bw.Rate)
	}
	a.reset()
	return a, nil
}

// SetObserver attaches an allocation-event observer (nil disables).
// Call it before the first Rates call.
func (a *denseContinuous) SetObserver(o obs.Observer) { a.o = o }

func (a *denseContinuous) reset() {
	share := a.p.Share()
	for i := range a.bir {
		a.bir[i] = share
	}
	a.stats.Stages++
}

// spill moves session i's regular queue to the overflow channel and
// grants a temporary overflow allocation that is withdrawn DO ticks later.
func (a *denseContinuous) spill(i int, t bw.Tick) {
	q := a.qr[i]
	if q == 0 {
		return
	}
	a.qo[i] += q
	a.qr[i] = 0
	grant := bw.RateOver(q, a.p.DO)
	a.bio[i] += grant
	a.reductions[i][t+a.p.DO] += grant
}

// Rates implements sim.MultiAllocator.
func (a *denseContinuous) Rates(t bw.Tick, arrived, queued []bw.Bits) []bw.Rate {
	k := a.p.K
	do := a.p.DO

	// Apply matured REDUCE operations first.
	for i := 0; i < k; i++ {
		if amt, ok := a.reductions[i][t]; ok {
			old := a.bir[i] + a.bio[i]
			a.bio[i] -= amt
			if a.bio[i] < 0 {
				a.bio[i] = 0
			}
			delete(a.reductions[i], t)
			if a.o != nil {
				a.o.Event(obs.Event{Type: obs.EventRenegotiateDown, Tick: t, Session: i,
					OldRate: old, NewRate: a.bir[i] + a.bio[i], Rule: "reduce"})
			}
		}
	}

	// TEST(i) on every arrival batch.
	grew := false
	for i := 0; i < k; i++ {
		if arrived[i] == 0 {
			continue
		}
		a.qr[i] += arrived[i]
		if a.qr[i] > bw.Volume(a.bir[i], do) {
			old := a.bir[i] + a.bio[i]
			hadOverflow := a.bio[i] > 0
			a.bir[i] += a.p.Share()
			a.spill(i, t)
			grew = true
			if a.o != nil {
				a.o.Event(obs.Event{Type: obs.EventRenegotiateUp, Tick: t, Session: i,
					OldRate: old, NewRate: a.bir[i] + a.bio[i], Rule: "test-spill"})
				if !hadOverflow && a.bio[i] > 0 {
					a.o.Event(obs.Event{Type: obs.EventOverflow, Tick: t, Session: i,
						NewRate: a.bio[i], Rule: "test-spill"})
				}
			}
		}
	}
	if grew {
		var totalRegular bw.Rate
		for i := 0; i < k; i++ {
			totalRegular += a.bir[i]
		}
		if totalRegular > 2*a.p.BO {
			for i := 0; i < k; i++ {
				a.spill(i, t)
			}
			a.stats.Resets++
			a.reset()
			if a.o != nil {
				a.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
					Rule: "stage-reset"})
			}
		}
	}

	for i := 0; i < k; i++ {
		a.rates[i] = a.bir[i] + a.bio[i]
	}
	// Advance the virtual queues: each channel serves its own queue.
	for i := 0; i < k; i++ {
		a.qo[i] -= min(a.qo[i], a.bio[i])
		a.qr[i] -= min(a.qr[i], a.bir[i])
	}
	out := make([]bw.Rate, k)
	copy(out, a.rates)
	return out
}

// Stats returns the structural counters accumulated so far.
func (a *denseContinuous) Stats() MultiStats { return a.stats }

// denseCombined is Combined before the sparse form, with both inner
// algorithms.
type denseCombined struct {
	p CombinedParams
	// continuousInner selects the Section 3.2 inner algorithm (spill on
	// demand with delayed REDUCE) instead of the phased one.
	continuousInner bool

	// Global stage state.
	glow  *LowTracker
	ghigh *HighTracker
	bon   bw.Rate

	// Inner multi-session state (B_O = bon), shared by both variants.
	resetTick bw.Tick
	bir       []bw.Rate
	bio       []bw.Rate
	qr        []bw.Bits
	qo        []bw.Bits

	// Global overflow channel: per-session flushed queues and the
	// temporary rates draining them.
	gq     []bw.Bits
	gqRate []bw.Rate

	// reductions holds the continuous inner algorithm's pending REDUCE
	// operations per session: tick -> overflow rate to withdraw.
	reductions []map[bw.Tick]bw.Rate

	o     obs.Observer
	stats CombinedStats
}

var _ sim.MultiAllocator = (*denseCombined)(nil)

// newDenseCombined returns the combined algorithm configured by p.
func newDenseCombined(p CombinedParams) (*denseCombined, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("combined: %w", err)
	}
	c := &denseCombined{
		p:          p,
		bir:        make([]bw.Rate, p.K),
		bio:        make([]bw.Rate, p.K),
		qr:         make([]bw.Bits, p.K),
		qo:         make([]bw.Bits, p.K),
		gq:         make([]bw.Bits, p.K),
		gqRate:     make([]bw.Rate, p.K),
		reductions: make([]map[bw.Tick]bw.Rate, p.K),
	}
	for i := range c.reductions {
		c.reductions[i] = make(map[bw.Tick]bw.Rate)
	}
	c.startGlobalStage(0)
	return c, nil
}

// newDenseCombinedContinuous returns the Section 4 algorithm with the
// continuous multi-session algorithm (Section 3.2) inside each global
// stage, matching the paper's B_A = 8*B_O variant.
func newDenseCombinedContinuous(p CombinedParams) (*denseCombined, error) {
	c, err := newDenseCombined(p)
	if err != nil {
		return nil, err
	}
	c.continuousInner = true
	return c, nil
}

// SetObserver attaches an allocation-event observer (nil disables).
// Call it before the first Rates call.
func (c *denseCombined) SetObserver(o obs.Observer) { c.o = o }

func (c *denseCombined) startGlobalStage(t bw.Tick) {
	c.glow = NewLowTracker(c.p.DO)
	c.ghigh = NewHighTracker(c.p.W, c.p.UO, c.p.BA)
	c.bon = 0
	c.stats.GlobalStages++
	// The event is emitted here, on the same path as the allocation
	// writes it explains; at construction the observer is still nil, so
	// the initial stage is (correctly) not counted as a change.
	if c.o != nil {
		c.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
			Rule: "global-reset"})
	}
	c.restage(t)
}

func (c *denseCombined) restage(t bw.Tick) {
	share := c.share()
	for i := range c.bir {
		c.bir[i] = share
	}
	c.resetTick = t
	c.stats.LocalStages++
}

// share returns the per-session regular quantum Bon/k (at least 1 once
// any bandwidth is needed).
func (c *denseCombined) share() bw.Rate {
	if c.bon == 0 {
		return 0
	}
	return bw.CeilDiv(c.bon, int64(c.p.K))
}

// Rates implements sim.MultiAllocator.
func (c *denseCombined) Rates(t bw.Tick, arrived, queued []bw.Bits) []bw.Rate {
	k := c.p.K
	do := c.p.DO

	// Drain the global overflow channel.
	for i := 0; i < k; i++ {
		if c.gq[i] == 0 {
			c.gqRate[i] = 0
			continue
		}
		c.gq[i] -= min(c.gq[i], c.gqRate[i])
		if c.gq[i] == 0 {
			if c.o != nil {
				inner := c.bir[i] + c.bio[i]
				c.o.Event(obs.Event{Type: obs.EventRenegotiateDown, Tick: t, Session: i,
					OldRate: inner + c.gqRate[i], NewRate: inner, Rule: "global-drain"})
			}
			c.gqRate[i] = 0
		}
	}

	// Global stage bookkeeping on the aggregate stream.
	var agg bw.Bits
	for _, a := range arrived {
		agg += a
	}
	glow := c.glow.Observe(agg)
	ghigh := c.ghigh.Observe(agg)
	if ghigh < glow {
		// GLOBAL RESET: flush every session queue, with this tick's
		// arrivals, to the global overflow channel (drained within DO)
		// and start a fresh global stage immediately, which sees no
		// arrivals this tick. The phased inner algorithm's overflow
		// allocations go with the flush.
		for i := 0; i < k; i++ {
			c.gq[i] += c.qr[i] + c.qo[i] + arrived[i]
			c.qr[i], c.qo[i] = 0, 0
			if !c.continuousInner {
				c.bio[i] = 0
			}
			if c.gq[i] > 0 {
				c.gqRate[i] = bw.RateOver(c.gq[i], do)
			}
		}
		c.stats.GlobalResets++
		c.startGlobalStage(t)
		arrived = make([]bw.Bits, k)
	} else if glow > 0 {
		want := bw.NextPow2(glow)
		if want > c.p.BA {
			want = c.p.BA
		}
		if want > c.bon {
			// The global estimate grows: a new local stage starts.
			old := c.bon
			c.bon = want
			c.stats.BonChanges++
			c.restage(t)
			if c.o != nil {
				c.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
					OldRate: old, NewRate: want, Rule: "bon-grow"})
			}
		}
	}

	if c.continuousInner {
		c.continuousStep(t, arrived)
	} else {
		c.phasedStep(t)
	}

	out := make([]bw.Rate, k)
	for i := 0; i < k; i++ {
		if !c.continuousInner {
			c.qr[i] += arrived[i]
		}
		out[i] = c.bir[i] + c.bio[i] + c.gqRate[i]
	}
	// Advance the virtual queues.
	for i := 0; i < k; i++ {
		c.qo[i] -= min(c.qo[i], c.bio[i])
		c.qr[i] -= min(c.qr[i], c.bir[i])
	}
	return out
}

// phasedStep is the Figure 4 inner algorithm with B_O = bon.
func (c *denseCombined) phasedStep(t bw.Tick) {
	k := c.p.K
	do := c.p.DO
	if c.bon > 0 && t > c.resetTick && (t-c.resetTick)%do == 0 {
		var totalRegular bw.Rate
		for i := 0; i < k; i++ {
			old := c.bir[i] + c.bio[i]
			if c.qr[i] <= bw.Volume(c.bir[i], do) {
				if c.qo[i] > 0 {
					c.stats.OverflowViolations++
				}
				c.bio[i] = 0
				if c.o != nil && old > c.bir[i] {
					c.o.Event(obs.Event{Type: obs.EventRenegotiateDown, Tick: t, Session: i,
						OldRate: old, NewRate: c.bir[i], Rule: "phase-drain"})
				}
			} else {
				hadOverflow := c.bio[i] > 0
				c.bir[i] += c.share()
				c.qo[i] += c.qr[i]
				c.qr[i] = 0
				c.bio[i] = bw.RateOver(c.qo[i], do)
				if r := c.bir[i] + c.bio[i]; c.o != nil && r != old {
					typ := obs.EventRenegotiateUp
					if r < old {
						typ = obs.EventRenegotiateDown
					}
					c.o.Event(obs.Event{Type: typ, Tick: t, Session: i,
						OldRate: old, NewRate: r, Rule: "phase-raise"})
				}
				if c.o != nil && !hadOverflow && c.bio[i] > 0 {
					c.o.Event(obs.Event{Type: obs.EventOverflow, Tick: t, Session: i,
						NewRate: c.bio[i], Rule: "phase-spill"})
				}
			}
			totalRegular += c.bir[i]
		}
		if totalRegular > 2*c.bon {
			for i := 0; i < k; i++ {
				c.qo[i] += c.qr[i]
				c.qr[i] = 0
				c.bio[i] = bw.RateOver(c.qo[i], do)
			}
			c.restage(t)
			if c.o != nil {
				c.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
					Rule: "stage-reset"})
			}
		}
	}
}

// continuousStep is the Figure 5 inner algorithm with B_O = bon: spill a
// session's regular queue on demand and withdraw the overflow grant D_O
// ticks later.
func (c *denseCombined) continuousStep(t bw.Tick, arrived []bw.Bits) {
	k := c.p.K
	do := c.p.DO
	for i := 0; i < k; i++ {
		if amt, ok := c.reductions[i][t]; ok {
			old := c.bir[i] + c.bio[i]
			c.bio[i] -= amt
			if c.bio[i] < 0 {
				c.bio[i] = 0
			}
			delete(c.reductions[i], t)
			if c.o != nil {
				c.o.Event(obs.Event{Type: obs.EventRenegotiateDown, Tick: t, Session: i,
					OldRate: old, NewRate: c.bir[i] + c.bio[i], Rule: "reduce"})
			}
		}
	}
	grew := false
	for i := 0; i < k; i++ {
		c.qr[i] += arrived[i]
		if arrived[i] == 0 || c.bon == 0 {
			continue
		}
		if c.qr[i] > bw.Volume(c.bir[i], do) {
			old := c.bir[i] + c.bio[i]
			hadOverflow := c.bio[i] > 0
			c.bir[i] += c.share()
			c.spillContinuous(i, t)
			grew = true
			if c.o != nil {
				c.o.Event(obs.Event{Type: obs.EventRenegotiateUp, Tick: t, Session: i,
					OldRate: old, NewRate: c.bir[i] + c.bio[i], Rule: "test-spill"})
				if !hadOverflow && c.bio[i] > 0 {
					c.o.Event(obs.Event{Type: obs.EventOverflow, Tick: t, Session: i,
						NewRate: c.bio[i], Rule: "test-spill"})
				}
			}
		}
	}
	if grew {
		var totalRegular bw.Rate
		for i := 0; i < k; i++ {
			totalRegular += c.bir[i]
		}
		if totalRegular > 2*c.bon {
			for i := 0; i < k; i++ {
				c.spillContinuous(i, t)
			}
			c.restage(t)
			if c.o != nil {
				c.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
					Rule: "stage-reset"})
			}
		}
	}
}

// spillContinuous moves session i's regular queue to the overflow channel
// with a temporary grant withdrawn D_O ticks later.
func (c *denseCombined) spillContinuous(i int, t bw.Tick) {
	q := c.qr[i]
	if q == 0 {
		return
	}
	c.qo[i] += q
	c.qr[i] = 0
	grant := bw.RateOver(q, c.p.DO)
	c.bio[i] += grant
	c.reductions[i][t+c.p.DO] += grant
}

// Stats returns the structural counters accumulated so far.
func (c *denseCombined) Stats() CombinedStats { return c.stats }
