package core

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// SingleSession is the single-session online algorithm of Section 2
// (Figure 3). It works in stages, each preceded by a RESET:
//
//   - within a stage it tracks low(t) (latency-driven lower bound on the
//     offline's unchanged allocation) and high(t) (utilization-driven
//     upper bound), and allocates the smallest power of two at least
//     low(t), never decreasing within the stage;
//   - when high(t) < low(t) the offline must have changed its allocation
//     at least once during the stage, so the stage ends: a RESET allocates
//     the full bandwidth B_A until the queue drains, and a new stage
//     starts with an empty queue.
//
// Per stage the online makes at most log2(B_A)+1 changes (monotone powers
// of two, plus the jump to B_A in the RESET), while the offline makes at
// least one — Theorem 6's O(log B_A) competitiveness.
//
// Deviation from the paper's presentation (documented in DESIGN.md): the
// paper starts by invoking RESET; since the simulator starts with an empty
// queue, this implementation starts directly in a stage — the RESET's only
// job is to re-establish an empty queue.
type SingleSession struct {
	p SingleParams
	// exact allocates low(t) itself, not the smallest power of two at
	// least low(t): the unquantized ablation (NewUnquantizedSingle).
	exact bool
	// high computes high(t): the paper's local (sliding-window)
	// utilization bound, a *HighTracker, or the global definition
	// discussed at the end of Section 2, a *CumHighTracker (see
	// NewGlobalUtilSingle).
	high highBound

	inReset bool
	low     *LowTracker
	bon     bw.Rate

	o    obs.Observer
	last bw.Rate // allocation reported on the previous tick

	stats SingleStats
}

// SingleStats counts the algorithm's structural events; the harness uses
// them to compute the stage-based lower bound on the offline's changes.
type SingleStats struct {
	// Stages is the number of stages started (including the current one).
	Stages int
	// Resets is the number of RESET operations, i.e. completed stages.
	// By Lemma 1, any offline algorithm obeying (B_O, D_O, U_O) makes at
	// least one change per completed stage.
	Resets int
	// ResetTicks is the number of ticks spent inside RESETs.
	ResetTicks int
	// InfeasibleTicks counts ticks where low(t) exceeded B_A — possible
	// only if the input violates the feasibility assumption.
	InfeasibleTicks int
}

// highBound is a stage's utilization-driven upper bound high(t).
type highBound interface {
	Observe(arrived bw.Bits) bw.Rate
	Reset()
}

var (
	_ sim.Allocator  = (*SingleSession)(nil)
	_ obs.Observable = (*SingleSession)(nil)
)

// NewSingleSession returns the algorithm configured by p.
func NewSingleSession(p SingleParams) (*SingleSession, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("single session: %w", err)
	}
	return newSingle(p, false, NewHighTracker(p.W, p.UO, p.BA)), nil
}

// newSingle assembles a session from validated parameters, its allocation
// grid and its utilization bound.
func newSingle(p SingleParams, exact bool, high highBound) *SingleSession {
	s := &SingleSession{p: p, exact: exact, high: high, low: NewLowTracker(p.DO)}
	s.startStage()
	return s
}

// NewUnquantizedSingle returns the ablation variant that allocates exactly
// low(t) instead of rounding up to a power of two. Its allocation tracks
// demand more tightly (better utilization) but it changes on every
// increase of low(t), and it can even lose the 2*D_O delay guarantee: on
// steady traffic low(t) approaches the arrival rate only asymptotically,
// leaving a harmonically growing backlog that the power-of-two overshoot
// would have absorbed (Claim 2's induction uses Bon >= the next power of
// two, not Bon >= low). The experiment behind DESIGN.md ablation #1.
func NewUnquantizedSingle(p SingleParams) (*SingleSession, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("unquantized single session: %w", err)
	}
	return newSingle(p, true, NewHighTracker(p.W, p.UO, p.BA)), nil
}

// NewGlobalUtilSingle returns the variant using the *global* utilization
// definition the paper contrasts with its local one (end of Section 2):
// the upper bound high(t) compares the total arrivals of the stage against
// the total allocation a constant offline rate would have accumulated,
// instead of sliding windows. The paper states (full version) that the
// algorithm retains its guarantees under this definition but that
// Omega(log B_A) is then unavoidable.
func NewGlobalUtilSingle(p SingleParams) (*SingleSession, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("global-util single session: %w", err)
	}
	return newSingle(p, false, NewCumHighTracker(p.W, p.UO, p.BA)), nil
}

// MustNewGlobalUtilSingle is NewGlobalUtilSingle but panics on error.
func MustNewGlobalUtilSingle(p SingleParams) *SingleSession { return must(NewGlobalUtilSingle(p)) }

// MustNewUnquantizedSingle is NewUnquantizedSingle but panics on error.
func MustNewUnquantizedSingle(p SingleParams) *SingleSession { return must(NewUnquantizedSingle(p)) }

// MustNewSingleSession is NewSingleSession but panics on error.
func MustNewSingleSession(p SingleParams) *SingleSession { return must(NewSingleSession(p)) }

func (s *SingleSession) startStage() {
	s.inReset = false
	s.low.Reset()
	s.high.Reset()
	s.bon = 0
	s.stats.Stages++
}

// Reset returns the policy to its just-constructed state while keeping
// the tracker storage, so a session reused across simulation runs (the
// sim.Runner contract) reaches a steady state of zero allocations. If an
// observer is attached and the last reported rate was nonzero, the
// teardown is emitted as a renegotiation to zero — releasing the
// allocation is itself a change in the paper's cost measure.
func (s *SingleSession) Reset() {
	s.emitRate(0, 0, "session-reset")
	s.stats = SingleStats{}
	s.startStage()
}

// resetRate is the allocation used during a RESET: enough to drain the
// queue at the same speed as the full bandwidth B_A, rounded up to the
// power-of-two grid. Figure 3 literally sets Bon := B_A; draining is just
// as fast with min(B_A, queue), and not charging the unused remainder
// keeps the discrete utilization constants within the paper's bounds
// (documented deviation, DESIGN.md §2).
func (s *SingleSession) resetRate(queued bw.Bits) bw.Rate {
	r := bw.NextPow2(queued)
	if r > s.p.BA {
		return s.p.BA
	}
	if queued == 0 {
		return 0
	}
	return r
}

// SetObserver attaches an allocation-event observer (nil disables).
// Call it before the first Rate call; the policy is not otherwise safe
// for concurrent mutation.
func (s *SingleSession) SetObserver(o obs.Observer) { s.o = o }

// renegotiation is the event of session i's rate moving from old to r,
// r != old: up or down by the sign of the change.
func renegotiation(t bw.Tick, i int, old, r bw.Rate, rule string) obs.Event {
	typ := obs.EventRenegotiateUp
	if r < old {
		typ = obs.EventRenegotiateDown
	}
	return obs.Event{Type: typ, Tick: t, Session: i, OldRate: old, NewRate: r, Rule: rule}
}

// emitRate reports this tick's allocation, emitting a renegotiation
// event when it differs from the previous tick's — exactly the changes
// the paper's cost measure counts — and returns it.
func (s *SingleSession) emitRate(t bw.Tick, r bw.Rate, rule string) bw.Rate {
	if s.o != nil && r != s.last {
		s.o.Event(renegotiation(t, 0, s.last, r, rule))
	}
	s.last = r
	return r
}

// Rate implements sim.Allocator.
func (s *SingleSession) Rate(t bw.Tick, arrived, queued bw.Bits) bw.Rate {
	if s.inReset {
		s.stats.ResetTicks++
		if queued <= bw.Volume(s.p.BA, 1) {
			// The queue drains this tick; a fresh stage starts next tick.
			s.startStage()
		}
		return s.emitRate(t, s.resetRate(queued), "reset-drain")
	}

	low := s.low.Observe(arrived)
	high := s.high.Observe(arrived)
	if high < low {
		// The offline algorithm cannot have kept one allocation through
		// this stage: end it.
		s.stats.Resets++
		s.stats.ResetTicks++
		if s.o != nil {
			s.o.Event(obs.Event{Type: obs.EventStageReset, Tick: t, Session: -1,
				Rule: "stage-reset"})
		}
		if queued <= bw.Volume(s.p.BA, 1) {
			s.startStage()
		} else {
			s.inReset = true
		}
		return s.emitRate(t, s.resetRate(queued), "stage-reset")
	}

	if low > 0 {
		want := low
		if !s.exact {
			want = bw.NextPow2(low)
		}
		s.bon = max(s.bon, want)
	}
	if s.bon > s.p.BA {
		s.stats.InfeasibleTicks++
		s.bon = s.p.BA
	}
	return s.emitRate(t, s.bon, "stage-grow")
}

// Stats returns the structural counters accumulated so far.
func (s *SingleSession) Stats() SingleStats { return s.stats }

// Promise implements sim.Promiser. The Figure 3 algorithm is held to
// Theorem 6: delay 2·D_O (Lemma 3), allocation within B_A, and
// utilization U_O/3 over some window of up to W+5·D_O ticks ending at
// every tick (Lemma 5). The paper proves that window floor for this
// algorithm only, so its variants promise none; the unquantized one
// loses the delay bound too (NewUnquantizedSingle).
func (s *SingleSession) Promise() sim.Promise {
	if s.exact {
		return sim.Promise{BA: s.p.BA}
	}
	pr := sim.Promise{DA: 2 * s.p.DO, BA: s.p.BA}
	if _, local := s.high.(*HighTracker); local {
		pr.UA, pr.UW = s.p.UO/3, s.p.W+5*s.p.DO
	}
	return pr
}
