package sim

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/trace"
)

// Runner runs single-session simulations while amortizing the per-run
// allocations across calls: the FIFO chunk storage, the delay histogram,
// and the recorded schedule's segment and prefix-sum slices are all
// reused. A Runner in steady state (storage grown to the working-set
// size) performs zero heap allocations per Run.
//
// The returned Result, and the Schedule it points to, are owned by the
// Runner and remain valid only until the next Run or Reset. Callers that
// need the schedule beyond that must copy it. The zero value is ready to
// use; a Runner must not be used from multiple goroutines at once.
type Runner struct {
	s   Session
	res Result
}

// NewRunner returns an empty Runner. The zero value works too; the
// constructor exists for symmetry with the rest of the package.
func NewRunner() *Runner { return &Runner{} }

// Reset clears the run state while keeping all grown storage. Run calls
// it implicitly; it is exported so a Runner holding a large schedule can
// be scrubbed between unrelated experiments.
func (r *Runner) Reset() {
	r.s.Reset()
	r.res = Result{}
}

// Run simulates the allocator on the trace, exactly like the package
// function Run but reusing the Runner's storage. See Run for the tick
// semantics and error conditions.
func (r *Runner) Run(tr *trace.Trace, alloc Allocator, opts Options) (*Result, error) {
	r.Reset()
	var (
		dropped   bw.Bits
		peakQueue bw.Bits
	)
	n := tr.Len()
	limit := n + opts.drainBudget(n)
	t := bw.Tick(0)
	for ; t < limit; t++ {
		arrived := tr.At(t)
		if t >= n && r.s.Queued() == 0 {
			break
		}
		if opts.QueueCap > 0 {
			if room := opts.QueueCap - r.s.Queued(); arrived > room {
				dropped += arrived - room
				arrived = room
			}
		}
		if q := r.s.Queued() + arrived; q > peakQueue {
			peakQueue = q
		}
		if _, err := r.s.Step(t, arrived, alloc); err != nil {
			return nil, err
		}
	}
	if left := r.s.Queued(); left > 0 {
		return nil, fmt.Errorf("%w: %d bits left after %d ticks", ErrQueueNeverDrained, left, limit)
	}
	delay := r.s.Delay()
	r.res = Result{
		Schedule:  r.s.Schedule(),
		Delay:     delay,
		Report:    metrics.BuildReport(tr, r.s.Schedule(), delay),
		Dropped:   dropped,
		PeakQueue: peakQueue,
	}
	return &r.res, nil
}

// MultiRunner is the k-session counterpart of Runner: the slots, the
// per-session schedules, scratch slices, and the aggregate schedule are
// all reused across Run calls. The session count may change between
// runs; storage grows to the largest k seen.
//
// The returned MultiResult and every schedule it references are owned by
// the MultiRunner and valid only until the next Run. The zero value is
// ready to use; not safe for concurrent use.
type MultiRunner struct {
	slots      Slots // grown to the largest k seen
	view       Slots // the first k of slots, for the k of the last run
	schedStore []bw.Schedule
	scheds     []*bw.Schedule
	delays     []bw.Tick
	total      bw.Schedule
	res        MultiResult
}

// NewMultiRunner returns an empty MultiRunner.
func NewMultiRunner() *MultiRunner { return &MultiRunner{} }

// size readies the per-session storage for k sessions, growing if needed
// and resetting whatever is reused, and returns the k slots to run on.
func (r *MultiRunner) size(k int) Slots {
	if cap(r.schedStore) < k {
		r.slots = NewSlots(k)
		r.view = r.slots
		r.schedStore = make([]bw.Schedule, k)
		r.scheds = make([]*bw.Schedule, k)
		r.delays = make([]bw.Tick, k)
	}
	if r.view.Len() != k {
		r.view = r.slots.Slice(0, k)
	}
	slots := r.view
	slots.Reset()
	r.schedStore = r.schedStore[:k]
	r.scheds = r.scheds[:k]
	r.delays = r.delays[:k]
	for i := 0; i < k; i++ {
		r.schedStore[i].Reset()
		r.scheds[i] = &r.schedStore[i]
	}
	r.total.Reset()
	return slots
}

// Run simulates the allocator on k parallel sessions, exactly like the
// package function RunMulti but reusing the MultiRunner's storage. Each
// tick is one Slots.Step — the round the live gateway runs — with the
// per-session schedules recorded from the rates it returns. A policy
// that is not a SparseAllocator runs behind Sparse's adapter.
func (r *MultiRunner) Run(m *trace.Multi, alloc MultiAllocator, opts Options) (*MultiResult, error) {
	k := m.K()
	n := m.Len()
	limit := n + opts.drainBudget(n)
	slots := r.size(k)
	sparse := Sparse(alloc, k)

	var left bw.Bits // queued across all sessions after the last step
	for t := bw.Tick(0); t < limit; t++ {
		if t >= n && left == 0 {
			break
		}
		var dropped bw.Bits
		if t < n {
			for i := 0; i < k; i++ {
				if a := m.Session(i).At(t); a > 0 {
					dropped += slots.Add(i, a)
				}
			}
		}
		round, err := slots.Step(t, sparse)
		if err != nil {
			return nil, err
		}
		if dropped+round.Policed > 0 {
			return nil, fmt.Errorf("sim: a session's backlog exceeds %d bits at tick %d", MaxBacklog, t)
		}
		for i, rate := range round.Rates {
			r.scheds[i].Set(t, rate)
		}
		left += round.Arrived - round.Served
	}
	if left > 0 {
		return nil, fmt.Errorf("%w: %d bits left after %d ticks", ErrQueueNeverDrained, left, limit)
	}

	var (
		maxDelay bw.Tick
		served   bw.Bits
	)
	for i := 0; i < k; i++ {
		q := slots.Queue(i)
		r.delays[i] = q.MaxDelay()
		if r.delays[i] > maxDelay {
			maxDelay = r.delays[i]
		}
		served += q.Served()
	}
	bw.SumInto(&r.total, r.scheds...)
	agg := m.Aggregate()
	delay := metrics.DelayStats{Max: maxDelay, Served: served}
	r.res = MultiResult{
		Sessions:      r.scheds,
		Total:         &r.total,
		Delay:         delay,
		SessionDelays: r.delays,
		Report:        metrics.BuildReport(agg, &r.total, delay),
	}
	return &r.res, nil
}
