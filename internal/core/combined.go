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
	// LocalStages is the inner algorithm's Stages: its own stage ends
	// (each forces at least one *local* offline change by Lemma 13), and
	// a restart at each global stage and each growth of the estimate.
	LocalStages int
	// BonChanges counts changes of the global bandwidth estimate.
	BonChanges int
	// OverflowViolations is the inner algorithm's Claim 8 count.
	OverflowViolations int
}

// Combined is the hybrid algorithm of Section 4. It runs the single-
// session stage machinery on the aggregate arrival stream to maintain a
// total bandwidth estimate Bon (low/high trackers, power-of-two levels,
// global stages ended when high < low), and inside each global stage runs
// a multi-session algorithm of Section 3 with B_O = Bon — a Phased
// (B_A = 7*B_O) by default, or a Continuous (B_A = 8*B_O) via
// NewCombinedContinuous, re-staged at each local stage. A local stage
// ends when (1) a GLOBAL RESET starts, (2) Bon grows, or (3) the inner
// algorithm's own stage ends: its total regular allocation exceeds
// 2*Bon. Until the first estimate the inner stage has B_O = 0 and only
// queues arrivals.
//
// On a GLOBAL RESET the sessions' virtual queues, with the reset tick's
// arrivals, move to a global overflow channel that drains them within
// D_O ticks, while a new global stage starts immediately (unlike the
// single-session RESET, which waits for the queue to empty).
type Combined struct {
	p CombinedParams

	// Global stage state.
	glow  *LowTracker
	ghigh *HighTracker
	bon   bw.Rate

	inner inner // the Section 3 algorithm, with B_O = bon

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

// inner is what Combined runs of a Phased or a Continuous: their state,
// a stage start under a given B_O, and a tick between begin and finish.
type inner interface {
	chans() *channels
	restage(t bw.Tick, bo bw.Rate)
	step(t bw.Tick, arrived []int32, bits []bw.Bits)
	SetObserver(o obs.Observer)
	Stats() MultiStats
}

var (
	_ sim.MultiAllocator  = (*Combined)(nil)
	_ sim.SparseAllocator = (*Combined)(nil)
)

// NewCombined returns the combined algorithm configured by p.
func NewCombined(p CombinedParams) (*Combined, error) { return newCombined(p, false) }

// NewCombinedContinuous returns the Section 4 algorithm with the
// continuous multi-session algorithm (Section 3.2) inside each global
// stage, matching the paper's B_A = 8*B_O variant.
func NewCombinedContinuous(p CombinedParams) (*Combined, error) { return newCombined(p, true) }

func newCombined(p CombinedParams, continuous bool) (*Combined, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("combined: %w", err)
	}
	m := MultiParams{K: p.K, DO: p.DO} // B_O is set by each restage
	var in inner
	if continuous {
		in = &Continuous{p: m, ch: newChannels(p.K, p.DO)}
	} else {
		in = &Phased{p: m, ch: newChannels(p.K, p.DO)}
	}
	c := &Combined{
		p:        p,
		inner:    in,
		gq:       make([]bw.Bits, p.K),
		gqRate:   make([]bw.Rate, p.K),
		draining: bitset.New(p.K),
		glow:     NewLowTracker(p.DO),
		ghigh:    NewHighTracker(p.W, p.UO, p.BA),
	}
	c.startGlobalStage(0)
	return c, nil
}

// MustNewCombinedContinuous is NewCombinedContinuous but panics on error.
func MustNewCombinedContinuous(p CombinedParams) *Combined { return must(NewCombinedContinuous(p)) }

// MustNewCombined is NewCombined but panics on error.
func MustNewCombined(p CombinedParams) *Combined { return must(NewCombined(p)) }

// SetObserver attaches an allocation-event observer (nil disables), to
// the inner algorithm too. Call it before the first Rates call.
func (c *Combined) SetObserver(o obs.Observer) {
	c.o = o
	c.inner.SetObserver(o)
}

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
	c.inner.restage(t, 0)
}

// Rates implements sim.MultiAllocator: the dense entry to RatesActive.
// The returned slice is the policy's own and valid until the next call.
func (c *Combined) Rates(t bw.Tick, arrived, queued []bw.Bits) []bw.Rate {
	ch := c.inner.chans()
	sessions, bits := ch.in.Collect(arrived)
	return ch.fold(c.RatesActive(t, sessions, bits, ch.dense()))
}

// RatesActive implements sim.SparseAllocator. The global overflow channel
// drains over the sessions it holds, the inner algorithm runs its tick;
// a global reset and a grown estimate walk all k.
func (c *Combined) RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	ch := c.inner.chans()
	ch.begin(t)

	// Drain the global overflow channel.
	c.drainers = c.draining.AppendTo(c.drainers[:0], 0, c.p.K)
	for _, i := range c.drainers {
		c.gq[i] -= min(c.gq[i], c.gqRate[i])
		if c.gq[i] == 0 {
			if c.o != nil {
				r := ch.sess[i].bir + ch.sess[i].bio
				c.o.Event(obs.Event{Type: obs.EventRenegotiateDown, Tick: t, Session: int(i),
					OldRate: r + c.gqRate[i], NewRate: r, Rule: "global-drain"})
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
		// GLOBAL RESET: every session's queues move to the global overflow
		// channel, which drains them within D_O, and a fresh global stage
		// starts at once. The tick's arrivals go with them: the old
		// stage's trackers observed them, and the new stage, whose B_O is
		// 0 until it has an estimate, would hold them unserved. The phased
		// inner algorithm has no REDUCE, so the flush takes its overflow
		// allocations too.
		for j, i := range arrived {
			c.gq[i] += bits[j]
		}
		_, phased := c.inner.(*Phased)
		for i := range c.gq {
			s := &ch.sess[i]
			qr, qo := ch.at(s)
			c.gq[i] += qr + qo
			s.vr, s.vo = 0, 0
			if phased {
				s.bio = 0
			}
			if c.gq[i] > 0 {
				c.gqRate[i] = bw.RateOver(c.gq[i], c.p.DO)
				c.draining.Add(i)
			}
		}
		c.stats.GlobalResets++
		c.startGlobalStage(t)
		arrived, bits = nil, nil
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
			c.inner.restage(t, want)
			if c.o != nil {
				c.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
					OldRate: old, NewRate: want, Rule: "bon-grow"})
			}
		}
	}

	c.inner.step(t, arrived, bits)
	return ch.finish(c.gqRate, applied)
}

// Leave tells the policy that session i ended with bits undelivered: no
// later round reserves bandwidth for them, on the inner channels or the
// global overflow channel.
func (c *Combined) Leave(i int) {
	c.inner.chans().leave(i)
	c.gq[i] = 0
}

// Stats returns the structural counters accumulated so far.
func (c *Combined) Stats() CombinedStats {
	st, in := c.stats, c.inner.Stats()
	st.LocalStages, st.OverflowViolations = in.Stages, in.OverflowViolations
	return st
}

// Promise implements sim.Promiser: Section 4 with B_O = B_A/8. Bandwidth
// 7·B_O (phased inner) or 8·B_O (continuous), plus a bit per session for
// the rounded-up shares; delay 2·D_O plus 2 ticks of handoff, for bits
// queued across a GLOBAL RESET or a growth of the estimate (DESIGN.md
// §2.2); Lemma 5's U_O/3 over W+5·D_O, on the aggregate.
func (c *Combined) Promise() sim.Promise {
	ba := 7 * (c.p.BA / 8)
	if _, ok := c.inner.(*Continuous); ok {
		ba = 8 * (c.p.BA / 8)
	}
	return sim.Promise{DA: 2*c.p.DO + 2, BA: ba + bw.Rate(c.p.K), UA: c.p.UO / 3, UW: c.p.W + 5*c.p.DO}
}
