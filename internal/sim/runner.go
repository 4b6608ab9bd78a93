package sim

import (
	"fmt"
	"slices"

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
// Runner and remain valid only until the next Run. Callers that need the
// schedule beyond that must copy it. The zero value is ready to
// use; a Runner must not be used from multiple goroutines at once.
type Runner struct {
	m   MultiRunner
	in  [1]*trace.Trace
	sep Separate
	res Result
}

// NewRunner returns an empty Runner. The zero value works too; the
// constructor exists for symmetry with the rest of the package.
func NewRunner() *Runner { return &Runner{} }

// Run simulates the allocator on the trace, exactly like the package
// function Run but reusing the Runner's storage. See Run for the tick
// semantics and error conditions.
func (r *Runner) Run(tr *trace.Trace, alloc Allocator, opts Options) (*Result, error) {
	r.in[0], r.sep.Allocs = tr, append(r.sep.Allocs[:0], alloc)
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

// Separate runs one single-session policy per session, session i by
// Allocs[i] alone, asking each every tick, busy or idle: a single-session
// policy keeps time by its calls. The kernel does not pass queues, so
// Separate keeps each as its FIFO does — arrivals in, min(queue, rate)
// out, nothing on a round the kernel rejects for a negative rate — exact
// while Separate alone serves the table, a slot a policy. A call at tick
// 0 starts a run with every queue empty; Leave empties one.
type Separate struct {
	Allocs       []Allocator
	queued       []bw.Bits
	rates, moved []bw.Rate
	changed      []int32
}

// Rates implements MultiAllocator, from the caller's queue lengths.
func (s *Separate) Rates(t bw.Tick, arrived, queued []bw.Bits) []bw.Rate {
	s.rates = s.rates[:0]
	for i, a := range s.Allocs {
		s.rates = append(s.rates, a.Rate(t, arrived[i], queued[i]))
	}
	return s.rates
}

// RatesActive implements SparseAllocator.
func (s *Separate) RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	s.changed, s.moved, s.rates = s.changed[:0], s.moved[:0], s.rates[:0]
	if len(s.Allocs) != len(applied) { // a session outside the table: the kernel rejects the round
		return append(s.changed, int32(len(applied))), append(s.moved, 0)
	}
	if n := len(applied); len(s.queued) != n || t == 0 {
		s.queued = slices.Grow(s.queued[:0], n)[:n]
		clear(s.queued)
	}
	for i, a := range s.Allocs {
		var in bw.Bits
		if len(arrived) > 0 && int(arrived[0]) == i {
			in, arrived, bits = bits[0], arrived[1:], bits[1:]
		}
		s.queued[i] += in
		s.rates = append(s.rates, a.Rate(t, in, s.queued[i]))
	}
	if i := slices.IndexFunc(s.rates, func(r bw.Rate) bool { return r < 0 }); i >= 0 {
		return append(s.changed, int32(i)), append(s.moved, s.rates[i])
	}
	for i, r := range s.rates {
		s.queued[i] -= min(s.queued[i], r)
		if r != applied[i] {
			s.changed = append(s.changed, int32(i))
			s.moved = append(s.moved, r)
		}
	}
	return s.changed, s.moved
}

// Leave empties session i's queue, for a session that ended.
func (s *Separate) Leave(i int) {
	if i < len(s.queued) {
		s.queued[i] = 0
	}
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
	slots      Slots // grown to the largest k seen, k long for the last run
	schedStore []bw.Schedule
	scheds     []*bw.Schedule
	delays     []bw.Tick
	total      bw.Schedule
	in         []*trace.Trace  // the sessions of the last Run
	hist       queue.DelayHist // attached to every queue of slots
	round      Round           // each tick's Step
	res        MultiResult
}

// NewMultiRunner returns an empty MultiRunner.
func NewMultiRunner() *MultiRunner { return &MultiRunner{} }

// size readies the per-session storage for k sessions, growing if needed
// and resetting whatever is reused, and returns the k slots to run on.
func (r *MultiRunner) size(k int) *Slots {
	if cap(r.schedStore) < k {
		r.slots = NewSlots(k)
		r.schedStore = make([]bw.Schedule, k)
		r.scheds = make([]*bw.Schedule, k)
		r.delays = make([]bw.Tick, k)
		for i := range k {
			r.hist.Attach(r.slots.Queue(i))
		}
	}
	r.slots.Reset(k)
	r.hist.Reset()
	r.schedStore = r.schedStore[:k]
	r.scheds = r.scheds[:k]
	r.delays = r.delays[:k]
	for i := 0; i < k; i++ {
		r.schedStore[i].Reset()
		r.scheds[i] = &r.schedStore[i]
	}
	r.total.Reset()
	return &r.slots
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
// recorded from the rates it returns. The sessions' traces have equal
// lengths; the caller fills in the report, against whichever aggregate
// trace it holds.
func (r *MultiRunner) run(sessions []*trace.Trace, alloc MultiAllocator, opts Options) (*MultiResult, error) {
	sparse, ok := alloc.(SparseAllocator)
	if !ok {
		return nil, fmt.Errorf("sim: %T is not a sim.SparseAllocator", alloc)
	}
	k := len(sessions)
	n := sessions[0].Len()
	limit := n + opts.drainBudget(n)
	slots := r.size(k)

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
		round := &r.round
		if err := slots.Step(t, sparse, round); err != nil {
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
