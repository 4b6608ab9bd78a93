package sim

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/queue"
	"dynbw/internal/trace"
)

// Runner runs single-session simulations. A single-session run is a
// MultiRunner run over one session, the policy serving it through
// Separate, so the one step kernel (Slots.Step) runs every simulated
// policy and the live gateway alike. Storage is reused across runs: once
// warm, a run allocates nothing.
//
// The returned Result, and the Schedule it points to, are owned by the
// Runner and remain valid only until the next Run or Reset. Callers that
// need the schedule beyond that must copy it. The zero value is ready to
// use; a Runner must not be used from multiple goroutines at once.
type Runner struct {
	m     MultiRunner
	in    [1]*trace.Trace
	alloc [1]Allocator
	sep   Separate
	res   Result
}

// NewRunner returns an empty Runner. The zero value works too; the
// constructor exists for symmetry with the rest of the package.
func NewRunner() *Runner { return &Runner{} }

// Reset forgets the last run while keeping all grown storage. Run needs
// no Reset first; it is exported so a Runner can drop its references to
// a trace and a policy between unrelated experiments.
func (r *Runner) Reset() {
	r.in[0], r.alloc[0], r.res = nil, nil, Result{}
}

// Run simulates the allocator on the trace, exactly like the package
// function Run but reusing the Runner's storage. See Run for the tick
// semantics and error conditions.
func (r *Runner) Run(tr *trace.Trace, alloc Allocator, opts Options) (*Result, error) {
	r.in[0], r.alloc[0] = tr, alloc
	r.sep.Allocs = r.alloc[:]
	res, err := r.m.run(r.in[:], &r.sep, opts)
	if err != nil {
		return nil, err
	}
	r.res = Result{
		Schedule:  res.Total,
		Delay:     res.Delay,
		Report:    metrics.BuildReport(tr, res.Total, res.Delay),
		Dropped:   res.Dropped,
		PeakQueue: res.PeakQueue,
	}
	return &r.res, nil
}

// Separate runs one single-session policy per session: session i is
// served by Allocs[i] alone. Each policy is asked every tick, busy or
// idle, because a single-session policy keeps time by its calls. A
// single-session run is Separate over one policy.
type Separate struct {
	Allocs []Allocator
	rates  []bw.Rate
}

// Rates implements MultiAllocator.
func (s *Separate) Rates(t bw.Tick, arrived, queued []bw.Bits) []bw.Rate {
	s.rates = s.rates[:0]
	for i, a := range s.Allocs {
		s.rates = append(s.rates, a.Rate(t, arrived[i], queued[i]))
	}
	return s.rates
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
	in         []*trace.Trace // the sessions of the last Run
	dense      denseAdapter
	hist       queue.DelayHist // attached to every queue of slots
	res        MultiResult
}

// NewMultiRunner returns an empty MultiRunner.
func NewMultiRunner() *MultiRunner { return &MultiRunner{} }

// size readies the per-session storage for k sessions, growing if needed
// and resetting whatever is reused, and returns the k slots to run on.
func (r *MultiRunner) size(k int) *Slots {
	if cap(r.schedStore) < k {
		r.slots = NewSlots(k)
		r.view = r.slots
		r.schedStore = make([]bw.Schedule, k)
		r.scheds = make([]*bw.Schedule, k)
		r.delays = make([]bw.Tick, k)
		for i := range k {
			r.hist.Attach(r.slots.Queue(i))
		}
	}
	if r.view.Len() != k {
		r.view = r.slots.prefix(k)
	}
	slots := &r.view
	slots.Reset()
	r.hist.Reset()
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
// package function RunMulti but reusing the MultiRunner's storage.
func (r *MultiRunner) Run(m *trace.Multi, alloc MultiAllocator, opts Options) (*MultiResult, error) {
	r.in = r.in[:0]
	for i := range m.K() {
		r.in = append(r.in, m.Session(i))
	}
	res, err := r.run(r.in, alloc, opts)
	if err != nil {
		return nil, err
	}
	res.Report = metrics.BuildReport(m.Aggregate(), res.Total, res.Delay)
	return res, nil
}

// run is the simulator's only tick loop: each tick is one Slots.Step —
// the round the live gateway runs — with the per-session schedules
// recorded from the rates it returns. A policy that is not a
// SparseAllocator runs behind the runner's own dense adapter. The
// sessions' traces have equal lengths; the caller fills in the report,
// against whichever aggregate trace it holds.
func (r *MultiRunner) run(sessions []*trace.Trace, alloc MultiAllocator, opts Options) (*MultiResult, error) {
	k := len(sessions)
	n := sessions[0].Len()
	limit := n + opts.drainBudget(n)
	slots := r.size(k)
	sparse, ok := alloc.(SparseAllocator)
	if !ok {
		r.dense.reset(alloc, slots)
		sparse = &r.dense
	}

	var (
		left      bw.Bits // queued across all sessions after the last step
		dropped   bw.Bits // arrivals over opts.QueueCap
		peakQueue bw.Bits
	)
	for t := bw.Tick(0); t < limit; t++ {
		if t >= n && left == 0 {
			break
		}
		var over bw.Bits
		if t < n {
			for i, s := range sessions {
				a := s.At(t)
				if a == 0 {
					continue
				}
				queued := slots.Queue(i).Bits()
				if opts.QueueCap > 0 && a > opts.QueueCap-queued {
					dropped += a - (opts.QueueCap - queued)
					a = opts.QueueCap - queued
				}
				peakQueue = max(peakQueue, queued+a)
				over += slots.Add(i, a)
			}
		}
		round, err := slots.Step(t, sparse)
		if err != nil {
			return nil, err
		}
		if over+round.Policed > 0 {
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

	delay := metrics.DelayStats{P50: r.hist.Quantile(0.50), P99: r.hist.Quantile(0.99)}
	for i := 0; i < k; i++ {
		q := slots.Queue(i)
		r.delays[i] = q.MaxDelay()
		delay.Max = max(delay.Max, r.delays[i])
		delay.Served += q.Served()
	}
	total := &r.total
	if k == 1 {
		total = r.scheds[0]
	} else {
		bw.SumInto(total, r.scheds...)
	}
	r.res = MultiResult{
		Sessions:      r.scheds,
		Total:         total,
		Delay:         delay,
		SessionDelays: r.delays,
		Dropped:       dropped,
		PeakQueue:     peakQueue,
	}
	return &r.res, nil
}
