package core

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// Continuous is the multi-session continuous algorithm of Section 3.2
// (Figure 5). Total bandwidth B_A = 5*B_O: a regular channel of 2*B_O and
// an overflow channel of 3*B_O. Unlike the phased algorithm it
// renegotiates on demand: whenever bits are added to a session's regular
// queue and the queue exceeds what its regular allocation can drain in
// D_O ticks, the session's regular allocation is raised by B_O/k, the
// queue is moved to the overflow channel, and a temporary overflow
// allocation sized to drain it within D_O ticks is granted and then
// withdrawn (REDUCE) D_O ticks later. When the total regular allocation
// exceeds 2*B_O the stage ends (Lemma 13 applies as in the phased case).
//
// Theorem 17: at most 3k online changes per offline change, with
// B_A = 5*B_O and D_A = 2*D_O. Virtual queue accounting follows the same
// FIFO "renaming" convention as Phased.
type Continuous struct {
	p  MultiParams
	ch channels

	o     obs.Observer
	stats MultiStats
}

var (
	_ sim.MultiAllocator  = (*Continuous)(nil)
	_ sim.SparseAllocator = (*Continuous)(nil)
)

// NewContinuous returns the continuous algorithm configured by p.
func NewContinuous(p MultiParams) (*Continuous, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("continuous: %w", err)
	}
	a := &Continuous{p: p, ch: newChannels(p.K, p.DO)}
	a.reset()
	return a, nil
}

// MustNewContinuous is NewContinuous but panics on error.
func MustNewContinuous(p MultiParams) *Continuous {
	a, err := NewContinuous(p)
	if err != nil {
		panic(err)
	}
	return a
}

// SetObserver attaches an allocation-event observer (nil disables).
// Call it before the first Rates call.
func (a *Continuous) SetObserver(o obs.Observer) { a.o = o }

func (a *Continuous) reset() {
	a.ch.setShares(a.p.Share())
	a.stats.Stages++
}

// Rates implements sim.MultiAllocator: the dense entry to RatesActive.
// The returned slice is the policy's own and valid until the next call.
func (a *Continuous) Rates(t bw.Tick, arrived, queued []bw.Bits) []bw.Rate {
	active, arr, q := a.ch.in.Collect(arrived, queued)
	return a.ch.fold(a.RatesActive(t, active, arr, q, a.ch.dense()))
}

// RatesActive implements sim.SparseAllocator. REDUCEs come off the wheel,
// TEST runs on the sessions with arrivals, the queue accounting on the
// live ones; only the end of a stage walks all k sessions.
func (a *Continuous) RatesActive(t bw.Tick, active []int32, arrived, _ []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	c := &a.ch

	// Apply matured REDUCE operations first, then TEST(i) on every
	// arrival batch.
	c.withdraw(t, a.o)
	if c.test(t, a.p.Share(), active, arrived, a.o) && c.sumBir > 2*a.p.BO {
		c.spillAll(t)
		a.stats.Resets++
		a.reset()
		if a.o != nil {
			a.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
				Rule: "stage-reset"})
		}
	}

	c.advance()
	return c.finish(nil, applied)
}

// Leave tells the policy that session i ended with bits undelivered: no
// later round reserves bandwidth for them.
func (a *Continuous) Leave(i int) { a.ch.leave(i) }

// Stats returns the structural counters accumulated so far.
func (a *Continuous) Stats() MultiStats { return a.stats }

// Promise implements sim.Promiser, Theorem 17: delay 2·D_O and total
// bandwidth 5·B_O, plus a bit per session for the rounded-up shares.
func (a *Continuous) Promise() sim.Promise {
	return sim.Promise{DA: 2 * a.p.DO, BA: 5*a.p.BO + bw.Rate(a.p.K)}
}
