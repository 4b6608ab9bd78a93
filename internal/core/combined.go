package core

import (
	"fmt"

	"dynbw/internal/bitset"
	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// CombinedParams parameterizes the combined algorithm of Section 4: k
// sessions share a channel whose total size must satisfy a utilization
// constraint, while every session's delay stays bounded. The offline
// comparator serves the k streams with total bandwidth B_O, delay D_O and
// combined utilization U_O; what the online algorithm guarantees in return
// is its Promise.
type CombinedParams struct {
	// K is the number of sessions.
	K int
	// BA caps the total bandwidth (a power of two, as in Section 2).
	BA bw.Rate
	// DO is the offline delay bound.
	DO bw.Tick
	// UO is the offline combined utilization bound.
	UO float64
	// W is the utilization window (W >= DO).
	W bw.Tick
}

// Validate checks the parameter constraints.
func (p CombinedParams) Validate() error {
	single := SingleParams{BA: p.BA, DO: p.DO, UO: p.UO, W: p.W}
	if err := single.Validate(); err != nil {
		return err
	}
	if p.K < 1 {
		return fmt.Errorf("%w: K = %d", ErrBadParams, p.K)
	}
	return nil
}

// CombinedStats counts the structural events of the combined algorithm.
type CombinedStats struct {
	// GlobalStages / GlobalResets mirror the single-session stage
	// machinery applied to the aggregate arrival stream: each global
	// reset forces at least one *global* offline change.
	GlobalStages, GlobalResets int
	// LocalStages counts local stage starts: the inner multi-session
	// RESETs (each forces at least one *local* offline change by
	// Lemma 13) plus restarts caused by the global estimate growing.
	LocalStages int
	// BonChanges counts changes of the global bandwidth estimate.
	BonChanges int
}

// Combined is the hybrid algorithm of Section 4. It runs the single-
// session stage machinery on the aggregate arrival stream to maintain a
// total bandwidth estimate Bon (low/high trackers, power-of-two levels,
// global stages ended when high < low), and inside each global stage runs
// a multi-session algorithm of Section 3 with B_O = Bon — the phased one
// (B_A = 7*B_O) by default, or the continuous one (B_A = 8*B_O) via
// NewCombinedContinuous. A local stage ends when (1) a GLOBAL RESET
// starts, (2) Bon grows, or (3) the inner algorithm's total regular
// allocation exceeds 2*Bon.
//
// On a GLOBAL RESET the sessions' virtual queues move to a global
// overflow channel that drains them within D_O ticks, while a new global
// stage starts immediately (unlike the single-session RESET, which waits
// for the queue to empty).
type Combined struct {
	p CombinedParams
	// continuousInner selects the Section 3.2 inner algorithm (spill on
	// demand with delayed REDUCE) instead of the phased one.
	continuousInner bool

	// Global stage state.
	glow  *LowTracker
	ghigh *HighTracker
	bon   bw.Rate

	// Inner multi-session state (B_O = bon), shared by both variants.
	localResetTick bw.Tick
	ch             channels

	// Global overflow channel: per-session flushed queues and the
	// temporary rates draining them. draining holds the sessions with
	// gq > 0, the only ones the channel has work for.
	gq       []bw.Bits
	gqRate   []bw.Rate
	draining bitset.Set
	drainers []int32 // draining, listed for one pass

	o     obs.Observer
	stats CombinedStats
}

var (
	_ sim.MultiAllocator  = (*Combined)(nil)
	_ sim.SparseAllocator = (*Combined)(nil)
)

// NewCombined returns the combined algorithm configured by p.
func NewCombined(p CombinedParams) (*Combined, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("combined: %w", err)
	}
	c := &Combined{
		p:        p,
		ch:       newChannels(p.K, p.DO),
		gq:       make([]bw.Bits, p.K),
		gqRate:   make([]bw.Rate, p.K),
		draining: bitset.New(p.K),
		glow:     NewLowTracker(p.DO),
		ghigh:    NewHighTracker(p.W, p.UO, p.BA),
	}
	c.startGlobalStage(0)
	return c, nil
}

// NewCombinedContinuous returns the Section 4 algorithm with the
// continuous multi-session algorithm (Section 3.2) inside each global
// stage, matching the paper's B_A = 8*B_O variant.
func NewCombinedContinuous(p CombinedParams) (*Combined, error) {
	c, err := NewCombined(p)
	if err != nil {
		return nil, err
	}
	c.continuousInner = true
	return c, nil
}

// MustNewCombinedContinuous is NewCombinedContinuous but panics on error.
func MustNewCombinedContinuous(p CombinedParams) *Combined {
	c, err := NewCombinedContinuous(p)
	if err != nil {
		panic(err)
	}
	return c
}

// MustNewCombined is NewCombined but panics on error.
func MustNewCombined(p CombinedParams) *Combined {
	c, err := NewCombined(p)
	if err != nil {
		panic(err)
	}
	return c
}

// SetObserver attaches an allocation-event observer (nil disables).
// Call it before the first Rates call.
func (c *Combined) SetObserver(o obs.Observer) { c.o = o }

func (c *Combined) startGlobalStage(t bw.Tick) {
	c.glow.Reset()
	c.ghigh.Reset()
	c.bon = 0
	c.stats.GlobalStages++
	// The event is emitted here, on the same path as the allocation
	// writes it explains; at construction the observer is still nil, so
	// the initial stage is (correctly) not counted as a change.
	if c.o != nil {
		c.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
			Rule: "global-reset"})
	}
	c.startLocalStage(t)
}

func (c *Combined) startLocalStage(t bw.Tick) {
	c.ch.setShares(t, c.share())
	if !c.continuousInner {
		// The epoch is t, where a line is its queue whatever the rate.
		for i := range c.ch.sess {
			c.ch.sess[i].bio = 0
		}
	}
	c.localResetTick = t
	c.stats.LocalStages++
}

// share returns the per-session regular quantum Bon/k (at least 1 once
// any bandwidth is needed).
func (c *Combined) share() bw.Rate {
	if c.bon == 0 {
		return 0
	}
	return bw.CeilDiv(c.bon, int64(c.p.K))
}

// Rates implements sim.MultiAllocator: the dense entry to RatesActive.
// The returned slice is the policy's own and valid until the next call.
func (c *Combined) Rates(t bw.Tick, arrived, queued []bw.Bits) []bw.Rate {
	sessions, bits := c.ch.in.Collect(arrived)
	return c.ch.fold(c.RatesActive(t, sessions, bits, c.ch.dense()))
}

// RatesActive implements sim.SparseAllocator. The global overflow channel
// drains over the sessions it holds, the inner algorithm runs over its
// live sessions; a global reset, a grown estimate and the end of a local
// stage walk all k.
func (c *Combined) RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	ch := &c.ch
	ch.begin(t)

	// Drain the global overflow channel.
	c.drainers = c.draining.AppendTo(c.drainers[:0], 0, c.p.K)
	for _, i := range c.drainers {
		c.gq[i] -= bw.Min(c.gq[i], c.gqRate[i])
		if c.gq[i] == 0 {
			if c.o != nil {
				inner := ch.sess[i].bir + ch.sess[i].bio
				c.o.Event(obs.Event{Type: obs.EventRenegotiateDown, Tick: t, Session: int(i),
					OldRate: inner + c.gqRate[i], NewRate: inner, Rule: "global-drain"})
			}
			c.gqRate[i] = 0
			ch.touch(i)
			c.draining.Remove(int(i))
		}
	}

	// Global stage bookkeeping on the aggregate stream.
	var agg bw.Bits
	for _, a := range bits {
		agg += a
	}
	glow := c.glow.Observe(agg)
	ghigh := c.ghigh.Observe(agg)
	if ghigh < glow {
		// GLOBAL RESET: flush every session queue to the global overflow
		// channel (drained within DO) and start a fresh global stage
		// immediately.
		for i := range c.gq {
			s := &ch.sess[i]
			qr, qo := ch.at(s)
			c.gq[i] += qr + qo
			s.vr, s.vo = 0, 0
			if c.gq[i] > 0 {
				c.gqRate[i] = bw.RateOver(c.gq[i], c.p.DO)
				c.draining.Add(i)
			}
		}
		c.stats.GlobalResets++
		c.startGlobalStage(t)
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
			c.startLocalStage(t)
			if c.o != nil {
				c.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
					OldRate: old, NewRate: want, Rule: "bon-grow"})
			}
		}
	}

	if c.continuousInner {
		c.innerContinuous(t, arrived, bits)
	} else {
		c.innerPhased(t)
		ch.arrive(arrived, bits)
	}
	return ch.finish(c.gqRate, applied)
}

// innerPhased is the Figure 4 inner algorithm with B_O = bon.
func (c *Combined) innerPhased(t bw.Tick) {
	ch := &c.ch
	if c.bon == 0 || t <= c.localResetTick || (t-c.localResetTick)%c.p.DO != 0 {
		return
	}
	ch.phase(t, c.share(), c.o)
	if ch.sumBir > 2*c.bon {
		ch.flush(t)
		c.startLocalStage(t)
		if c.o != nil {
			c.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
				Rule: "local-reset"})
		}
	}
}

// innerContinuous is the Figure 5 inner algorithm with B_O = bon: spill a
// session's regular queue on demand and withdraw the overflow grant D_O
// ticks later. Until there is an estimate to share out, arrivals only
// queue.
func (c *Combined) innerContinuous(t bw.Tick, arrived []int32, bits []bw.Bits) {
	ch := &c.ch
	ch.withdraw(t, c.o)
	if c.bon == 0 {
		ch.arrive(arrived, bits)
		return
	}
	if ch.test(t, c.share(), arrived, bits, c.o) && ch.sumBir > 2*c.bon {
		ch.spillAll(t)
		c.startLocalStage(t)
		if c.o != nil {
			c.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
				Rule: "local-reset"})
		}
	}
}

// Leave tells the policy that session i ended with bits undelivered: no
// later round reserves bandwidth for them, on the inner channels or the
// global overflow channel.
func (c *Combined) Leave(i int) {
	c.ch.leave(i)
	c.gq[i] = 0
}

// Stats returns the structural counters accumulated so far.
func (c *Combined) Stats() CombinedStats { return c.stats }

// Promise implements sim.Promiser: Section 4 with B_O = B_A/8. Bandwidth
// 7·B_O (phased inner) or 8·B_O (continuous), plus a bit per session for
// the rounded-up shares; delay 2·D_O plus 2 ticks of GLOBAL RESET handoff
// (a tick for the new global stage to observe arrivals, one for its
// estimate to take effect); Lemma 5's U_O/3 over W+5·D_O, on the aggregate.
func (c *Combined) Promise() sim.Promise {
	ba := 7 * (c.p.BA / 8)
	if c.continuousInner {
		ba = 8 * (c.p.BA / 8)
	}
	return sim.Promise{DA: 2*c.p.DO + 2, BA: ba + bw.Rate(c.p.K), UA: c.p.UO / 3, UW: c.p.W + 5*c.p.DO}
}
