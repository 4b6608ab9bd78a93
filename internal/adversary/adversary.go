// Package adversary implements closed-loop (adaptive) lower-bound
// experiments: an adversary that chooses each tick's arrivals only after
// observing the online allocator's previous allocation — the information
// asymmetry behind the paper's impossibility results (Section 1.1: online
// algorithms without slack make unboundedly many changes; the proofs are
// deferred to the paper's full version, and the adaptive duels here
// reproduce the phenomenon mechanically).
package adversary

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/queue"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
)

// Adversary chooses arrivals adaptively. Arrivals is called once per tick
// with the allocation the online algorithm used on the previous tick
// (zero at t = 0), before the allocator sees anything about tick t.
type Adversary interface {
	Arrivals(t bw.Tick, prevRate bw.Rate) bw.Bits
}

// Result is the outcome of a duel: the realized arrival trace (which
// depends on the allocator — that is the point of adaptivity) plus the
// usual schedule and delay statistics.
type Result struct {
	Trace    *trace.Trace
	Schedule *bw.Schedule
	Delay    metrics.DelayStats
}

// Duel runs the allocator against the adversary for n ticks plus a drain
// period. Each tick is one step of a one-slot sim.Slots with the policy
// behind sim.Separate, exactly as sim.Run steps it, so a duel and a
// replay of its realized trace agree by construction.
func Duel(alloc sim.Allocator, adv Adversary, n bw.Tick, opts sim.Options) (*Result, error) {
	var (
		slots    = sim.NewSlots(1)
		step     = &sim.Separate{Allocs: []sim.Allocator{alloc}}
		hist     queue.DelayHist
		sched    bw.Schedule
		arrivals []bw.Bits
		round    sim.Round
	)
	hist.Attach(slots.Queue(0))
	limit := n + 4*n + 1024
	if opts.DrainBudget > 0 {
		limit = n + opts.DrainBudget
	}
	for t := bw.Tick(0); t < limit; t++ {
		var over bw.Bits
		if t < n {
			arrived := adv.Arrivals(t, slots.Rate(0))
			if arrived < 0 {
				return nil, fmt.Errorf("adversary: negative arrivals %d at tick %d", arrived, t)
			}
			arrivals = append(arrivals, arrived)
			over = slots.Add(0, arrived)
		} else if slots.Queue(0).Bits() == 0 { // Queue brings the slot up to the last round
			break
		}
		if err := slots.Step(t, step, &round); err != nil {
			return nil, fmt.Errorf("adversary: %w", err)
		}
		if over+round.Policed > 0 {
			return nil, fmt.Errorf("adversary: backlog exceeds %d bits at tick %d", sim.MaxBacklog, t)
		}
		sched.Set(t, slots.Rate(0))
	}
	q := slots.Queue(0)
	if left := q.Bits(); left > 0 {
		return nil, fmt.Errorf("adversary: %d bits left after %d ticks", left, limit)
	}
	tr, err := trace.New(arrivals)
	if err != nil {
		return nil, fmt.Errorf("adversary: %w", err)
	}
	delay := metrics.DelayStats{Max: q.MaxDelay(), P50: hist.Quantile(0.50), P99: hist.Quantile(0.99), Served: q.Served()}
	return &Result{Trace: tr, Schedule: &sched, Delay: delay}, nil
}

// DropSpiker is the slack-busting adversary sketched in the paper's
// impossibility remark: it stays silent while the online algorithm holds
// bandwidth (attacking its utilization bound, which eventually forces a
// deallocation) and fires a spike the moment the allocation falls to the
// threshold (forcing a delay-driven reallocation). To keep the realized
// trace serveable by a lazy offline algorithm, spikes are never closer
// than MinGap ticks and never farther than MaxGap ticks apart.
type DropSpiker struct {
	// Spike is the burst size in bits.
	Spike bw.Bits
	// Threshold triggers a spike once the previous allocation is at or
	// below it.
	Threshold bw.Rate
	// MinGap and MaxGap bound the spacing between spikes.
	MinGap, MaxGap bw.Tick

	lastSpike bw.Tick
	started   bool
	fired     int
}

var _ Adversary = (*DropSpiker)(nil)

// Arrivals implements Adversary.
func (d *DropSpiker) Arrivals(t bw.Tick, prevRate bw.Rate) bw.Bits {
	gap := t - d.lastSpike
	if d.started && gap < d.MinGap {
		return 0
	}
	if (prevRate <= d.Threshold) || (d.started && gap >= d.MaxGap) || !d.started {
		d.lastSpike = t
		d.started = true
		d.fired++
		return d.Spike
	}
	return 0
}

// Fired reports how many spikes have been emitted.
func (d *DropSpiker) Fired() int { return d.fired }
