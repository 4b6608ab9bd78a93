package core

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// Phased is the multi-session phased algorithm of Section 3.1 (Figure 4).
// Total bandwidth B_A = 4*B_O is split into a regular channel (2*B_O) and
// an overflow channel (2*B_O). Each session i holds a regular allocation
// Bir and an overflow allocation Bio. The algorithm works in stages; each
// stage starts with a RESET that grants every session Bir = B_O/k, and is
// divided into phases of D_O ticks. At each phase boundary, a session
// whose regular queue cannot be drained within D_O at its current Bir gets
// its Bir raised by B_O/k and its backlog moved to the overflow channel,
// which is sized to drain it within the next phase. When the total
// regular allocation exceeds 2*B_O, the offline (B_O, D_O)-algorithm must
// have changed its allocation (Lemma 13), and a new stage starts.
//
// Per stage the online makes at most ~3k changes while the offline makes
// at least one — Theorem 14.
//
// Bits are delivered FIFO per session (the paper's remark): the algorithm
// tracks *virtual* regular/overflow queue sizes that evolve exactly as the
// two-channel algorithm dictates, while the simulator's real FIFO queue
// drains at the combined rate — the real queue is never longer than the
// virtual ones, so the delay bound carries over.
type Phased struct {
	p MultiParams

	resetTick bw.Tick // tick of the most recent RESET
	ch        channels

	o     obs.Observer
	stats MultiStats
}

// MultiStats counts structural events of the multi-session algorithms.
type MultiStats struct {
	// Stages is the number of stages started.
	Stages int
	// Resets is the number of stage ends (each forces >= 1 offline
	// change by Lemma 13).
	Resets int
	// OverflowViolations counts ticks where a virtual overflow queue was
	// nonzero when the algorithm's analysis says it must be empty; always
	// zero unless the implementation diverges from the paper.
	OverflowViolations int
}

var (
	_ sim.MultiAllocator  = (*Phased)(nil)
	_ sim.SparseAllocator = (*Phased)(nil)
)

// NewPhased returns the phased algorithm configured by p.
func NewPhased(p MultiParams) (*Phased, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("phased: %w", err)
	}
	a := &Phased{p: p, ch: newChannels(p.K, p.DO)}
	a.reset(0)
	return a, nil
}

// MustNewPhased is NewPhased but panics on error.
func MustNewPhased(p MultiParams) *Phased {
	a, err := NewPhased(p)
	if err != nil {
		panic(err)
	}
	return a
}

// SetObserver attaches an allocation-event observer (nil disables).
// Call it before the first Rates call; the policy is not otherwise safe
// for concurrent mutation.
func (a *Phased) SetObserver(o obs.Observer) { a.o = o }

// reset starts a new stage at tick t: every session gets the base regular
// share and phases restart.
func (a *Phased) reset(t bw.Tick) {
	a.ch.setShares(t, a.p.Share())
	a.resetTick = t
	a.stats.Stages++
}

// Rates implements sim.MultiAllocator: the dense entry to RatesActive.
// The returned slice is the policy's own and valid until the next call.
func (a *Phased) Rates(t bw.Tick, arrived, queued []bw.Bits) []bw.Rate {
	sessions, bits := a.ch.in.Collect(arrived)
	return a.ch.fold(a.RatesActive(t, sessions, bits, a.ch.dense()))
}

// RatesActive implements sim.SparseAllocator. Only a RESET walks all k
// sessions; a phase boundary walks the live ones, and any other tick
// reaches the sessions with arrivals alone.
func (a *Phased) RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	c := &a.ch
	c.begin(t)

	// PHASE boundary: every DO ticks starting DO after the RESET, decided
	// on the queue state at the end of the previous phase (before this
	// tick's arrivals).
	if t > a.resetTick && (t-a.resetTick)%a.p.DO == 0 {
		a.stats.OverflowViolations += c.phase(t, a.p.Share(), a.o)
		if c.sumBir > 2*a.p.BO {
			// Stage ends: flush every regular queue to overflow and RESET.
			c.flush(t)
			a.stats.Resets++
			a.reset(t)
			if a.o != nil {
				a.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
					Rule: "stage-reset"})
			}
		}
	}

	c.arrive(arrived, bits)
	return c.finish(nil, applied)
}

// Leave tells the policy that session i ended with bits undelivered: no
// later round reserves bandwidth for them.
func (a *Phased) Leave(i int) { a.ch.leave(i) }

// Stats returns the structural counters accumulated so far.
func (a *Phased) Stats() MultiStats { return a.stats }

// Promise implements sim.Promiser, Theorem 14: delay 2·D_O and total
// bandwidth 4·B_O, plus a bit per session for the rounded-up shares.
func (a *Phased) Promise() sim.Promise {
	return sim.Promise{DA: 2 * a.p.DO, BA: 4*a.p.BO + bw.Rate(a.p.K)}
}
