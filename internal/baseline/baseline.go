// Package baseline implements the allocation strategies the paper argues
// against (Figure 2) and the renegotiation heuristics of the experimental
// works it cites ([GKT95] RCBR, [ACHM96]): static peak and static mean
// allocation, per-tick renegotiation, fixed-period renegotiation, and an
// EWMA-based renegotiated-CBR policy. They populate the trade-off tables
// (changes vs delay vs utilization) that the online algorithms of
// internal/core are compared against.
package baseline

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/sim"
)

// Static allocates a fixed rate forever — Figure 2 (a) when the rate is
// the peak demand (short delay, poor utilization) and Figure 2 (b) when
// it is the mean demand (good utilization, long delay). The rate is
// usually derived clairvoyantly from the trace (Peak or MeanCeil).
type Static struct {
	R bw.Rate
}

var _ sim.Allocator = Static{}

// Rate implements sim.Allocator.
func (s Static) Rate(bw.Tick, bw.Bits, bw.Bits) bw.Rate { return s.R }

// PerTick renegotiates every tick to exactly the minimum bandwidth that
// keeps every queued bit within the delay budget D — Figure 2 (c):
// minimal delay and maximal utilization, but an unrealistic number of
// changes. It tracks per-chunk deadlines (arrival + D) and allocates the
// binding deadline's required rate each tick.
type PerTick struct {
	// D is the delay budget in ticks (values < 1 are clamped to 1... 0
	// means "serve in the arrival tick").
	D bw.Tick

	chunks []perTickChunk
	head   int
}

type perTickChunk struct {
	deadline bw.Tick
	bits     bw.Bits
}

var _ sim.Allocator = (*PerTick)(nil)

// Rate implements sim.Allocator.
func (p *PerTick) Rate(t bw.Tick, arrived, _ bw.Bits) bw.Rate {
	if arrived > 0 {
		p.chunks = append(p.chunks, perTickChunk{deadline: t + p.D, bits: arrived})
	}
	// Required rate: for each pending deadline d, all bits due by d must
	// be served within (d - t + 1) ticks.
	var need bw.Rate
	var cum bw.Bits
	for i := p.head; i < len(p.chunks); i++ {
		c := p.chunks[i]
		cum += c.bits
		horizon := c.deadline - t + 1
		if horizon < 1 {
			horizon = 1
		}
		if r := bw.RateOver(cum, horizon); r > need {
			need = r
		}
	}
	// Mirror the service the simulator will perform.
	budget := need
	for budget > 0 && p.head < len(p.chunks) {
		c := &p.chunks[p.head]
		took := min(budget, c.bits)
		c.bits -= took
		budget -= took
		if c.bits == 0 {
			p.head++
		}
	}
	if p.head > 64 && p.head*2 >= len(p.chunks) {
		n := copy(p.chunks, p.chunks[p.head:])
		p.chunks = p.chunks[:n]
		p.head = 0
	}
	return need
}

// Periodic renegotiates once every Period ticks, as in the
// limited-renegotiation heuristics of [GKT95] and [ACHM96]: the new rate
// must clear the current backlog within the delay budget and sustain the
// previous period's average arrival rate.
type Periodic struct {
	// Period is the renegotiation interval in ticks (>= 1).
	Period bw.Tick
	// D is the delay budget used to size the backlog-clearing component.
	D bw.Tick

	rate      bw.Rate
	arrived   bw.Bits
	lastRenew bw.Tick
	started   bool
}

var _ sim.Allocator = (*Periodic)(nil)

// Rate implements sim.Allocator.
func (p *Periodic) Rate(t bw.Tick, arrived, queued bw.Bits) bw.Rate {
	p.arrived += arrived
	period := p.Period
	if period < 1 {
		period = 1
	}
	if !p.started || t-p.lastRenew >= period {
		d := p.D
		if d < 1 {
			d = 1
		}
		sustain := bw.RateOver(p.arrived, period)
		clear := bw.RateOver(queued, d)
		p.rate = max(sustain, clear)
		p.arrived = 0
		p.lastRenew = t
		p.started = true
	}
	return p.rate
}

// EWMA is a renegotiated-CBR policy in the spirit of RCBR [GKT95]: it
// tracks an exponentially weighted moving average of the arrival rate and
// renegotiates only when the current allocation drifts outside a
// multiplicative band around the estimate, or when the backlog threatens
// the delay budget.
type EWMA struct {
	// Alpha is the smoothing factor in (0, 1].
	Alpha float64
	// Band is the multiplicative slack (> 1): renegotiate when the
	// allocation leaves [est/Band, est*Band].
	Band float64
	// Headroom scales the estimate into the new allocation (>= 1).
	Headroom float64
	// D is the delay budget used for the backlog safety valve.
	D bw.Tick

	est  float64
	rate bw.Rate
}

var _ sim.Allocator = (*EWMA)(nil)

// NewEWMA returns an EWMA policy with validated parameters.
func NewEWMA(alpha, band, headroom float64, d bw.Tick) (*EWMA, error) {
	switch {
	case alpha <= 0 || alpha > 1:
		return nil, fmt.Errorf("baseline: alpha = %v, want (0, 1]", alpha)
	case band <= 1:
		return nil, fmt.Errorf("baseline: band = %v, want > 1", band)
	case headroom < 1:
		return nil, fmt.Errorf("baseline: headroom = %v, want >= 1", headroom)
	case d < 1:
		return nil, fmt.Errorf("baseline: d = %d, want >= 1", d)
	}
	return &EWMA{Alpha: alpha, Band: band, Headroom: headroom, D: d}, nil
}

// Rate implements sim.Allocator.
func (e *EWMA) Rate(_ bw.Tick, arrived, queued bw.Bits) bw.Rate {
	e.est = e.Alpha*float64(arrived) + (1-e.Alpha)*e.est

	target := bw.Rate(e.est * e.Headroom)
	cur := float64(e.rate)
	outOfBand := cur > e.est*e.Headroom*e.Band || cur*e.Band < e.est*e.Headroom
	safety := queued > bw.Volume(e.rate, e.D)
	switch {
	case safety:
		// Backlog cannot be drained within the delay budget: jump to a
		// rate that clears it.
		need := bw.RateOver(queued, e.D)
		if need > target {
			e.rate = need
		} else {
			e.rate = target
		}
	case outOfBand:
		e.rate = target
	}
	return e.rate
}
