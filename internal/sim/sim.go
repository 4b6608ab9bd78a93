// Package sim is the discrete-time fluid simulator on which every
// experiment runs. It realizes the paper's end-station abstraction: the
// only source of latency is the queue at the sending end, which drains at
// whatever rate the allocator currently grants.
//
// Per-tick semantics (documented in DESIGN.md §2): at tick t the arrivals
// IN(t) enqueue, the allocator — which sees the arrival history up to and
// including t — picks the rate B(t), and then min(B(t), queue) bits are
// served in FIFO order. A bit served in its arrival tick has delay 0, so a
// delay bound D means "served at most D ticks after arrival".
//
// The simulator produces the committed goldens; it must stay bitwise
// reproducible (no wall clock, no global randomness, no map-order
// dependence):
//
// bwlint:deterministic
package sim

import (
	"errors"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/trace"
)

// Allocator is a single-session online bandwidth allocation policy. Rate is
// called exactly once per tick, in tick order, after the tick's arrivals
// have been added to the queue. It must return a non-negative rate.
//
// Implementations see only causal information: the arrivals so far (fed
// through the arrived argument) and their own state.
type Allocator interface {
	// Rate returns the bandwidth to allocate at tick t. arrived is the
	// number of bits that arrived at tick t; queued is the queue length
	// including them (before any service at t).
	Rate(t bw.Tick, arrived, queued bw.Bits) bw.Rate
}

// AllocatorFunc adapts a function to the Allocator interface.
type AllocatorFunc func(t bw.Tick, arrived, queued bw.Bits) bw.Rate

// Rate implements Allocator.
func (f AllocatorFunc) Rate(t bw.Tick, arrived, queued bw.Bits) bw.Rate {
	return f(t, arrived, queued)
}

var _ Allocator = AllocatorFunc(nil)

// ErrQueueNeverDrained is returned when, after the trace ends, the
// allocator fails to drain the remaining queue within the drain budget.
var ErrQueueNeverDrained = errors.New("sim: queue never drained after trace end")

// Result is the outcome of a single-session run.
type Result struct {
	// Schedule is the recorded allocation, one rate per simulated tick.
	Schedule *bw.Schedule
	// Delay summarizes per-bit delays.
	Delay metrics.DelayStats
	// Report aggregates the run's metrics.
	Report metrics.Report
	// Dropped is the number of bits lost to the finite buffer (zero
	// unless Options.QueueCap is set).
	Dropped bw.Bits
	// PeakQueue is the largest queue length observed, for buffer sizing.
	PeakQueue bw.Bits
}

// Options configures a run.
type Options struct {
	// DrainBudget bounds how many ticks past the end of the trace the
	// simulator runs to let the allocator drain the queue. Zero means
	// 4*len(trace) + 1024.
	DrainBudget bw.Tick
	// QueueCap, when positive, bounds each session's sending-end buffer:
	// arrivals that would push its queue beyond the cap are dropped and
	// counted in Dropped. The paper assumes unbounded queues (Section 1,
	// "we assume that the size of the queues ... are large enough");
	// this option quantifies how large is large enough — Claim 2 bounds
	// the paper algorithm's queue by Bon*D_A <= B_A*2*D_O.
	QueueCap bw.Bits
}

func (o Options) drainBudget(n bw.Tick) bw.Tick {
	if o.DrainBudget > 0 {
		return o.DrainBudget
	}
	return 4*n + 1024
}

// Run simulates the allocator on the trace and returns the recorded
// schedule and metrics. After the trace ends the simulator keeps ticking
// (with zero arrivals) until the queue drains, so every bit's delay is
// accounted for. The allocator is asked every tick, its session busy or
// idle.
//
// Run is a thin wrapper over a throwaway Runner; hot paths that simulate
// repeatedly should hold a Runner and reuse it.
func Run(tr *trace.Trace, alloc Allocator, opts Options) (*Result, error) {
	return new(Runner).Run(tr, alloc, opts)
}
