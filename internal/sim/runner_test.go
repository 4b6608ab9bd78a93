package sim

import (
	"errors"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/queue"
	"dynbw/internal/trace"
	"dynbw/internal/traffic"
)

func runnerTrace(seed uint64, n bw.Tick) *trace.Trace {
	return traffic.ParetoBurst{Seed: seed, Alpha: 1.5, MinBurst: 64,
		MeanGap: 12, SpreadTicks: 2}.Generate(n)
}

// thresholdAlloc is a stateless allocator exercising rate changes: serve
// the whole queue, capped.
func thresholdAlloc(cap bw.Rate) Allocator {
	return AllocatorFunc(func(_ bw.Tick, _, queued bw.Bits) bw.Rate {
		r := bw.Rate(queued)
		if r > cap {
			r = cap
		}
		return r
	})
}

func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if !got.Schedule.Equal(want.Schedule) {
		t.Fatal("schedules differ")
	}
	if got.Delay != want.Delay {
		t.Errorf("delay %+v, want %+v", got.Delay, want.Delay)
	}
	if got.Report != want.Report {
		t.Errorf("report %+v, want %+v", got.Report, want.Report)
	}
	if got.Dropped != want.Dropped || got.PeakQueue != want.PeakQueue {
		t.Errorf("dropped/peak %d/%d, want %d/%d",
			got.Dropped, got.PeakQueue, want.Dropped, want.PeakQueue)
	}
}

// TestRunnerMatchesRunAcrossReuse drives one Runner through a series of
// different traces and checks each run against a fresh Run call.
func TestRunnerMatchesRunAcrossReuse(t *testing.T) {
	r := NewRunner()
	for seed := uint64(1); seed <= 5; seed++ {
		n := bw.Tick(128 << (seed % 3)) // vary run length to stress Reset
		tr := runnerTrace(seed, n)
		alloc := thresholdAlloc(256)
		got, err := r.Run(tr, alloc, Options{})
		if err != nil {
			t.Fatalf("seed %d: Runner.Run: %v", seed, err)
		}
		want, err := Run(tr, thresholdAlloc(256), Options{})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		sameResult(t, got, want)
	}
}

// sessionModel is the single-session tick loop the simulator ran before a
// single session became one slot of Slots: push, ask the policy, record,
// serve, every tick until the trace ends and the queue drains. It is the
// reference Run must agree with field for field.
func sessionModel(tr *trace.Trace, alloc Allocator) (*Result, error) {
	var (
		q     queue.FIFO
		hist  queue.DelayHist
		sched bw.Schedule
	)
	hist.Attach(&q)
	n := tr.Len()
	limit := n + Options{}.drainBudget(n)
	var peak bw.Bits
	for t := bw.Tick(0); t < limit; t++ {
		if t >= n && q.Bits() == 0 {
			break
		}
		q.Push(t, tr.At(t))
		peak = max(peak, q.Bits())
		rate := alloc.Rate(t, tr.At(t), q.Bits())
		if rate < 0 {
			return nil, errors.New("negative rate")
		}
		sched.Set(t, rate)
		q.Serve(t, rate)
	}
	if q.Bits() > 0 {
		return nil, ErrQueueNeverDrained
	}
	delay := metrics.DelayStats{Max: q.MaxDelay(), P50: hist.Quantile(0.50), P99: hist.Quantile(0.99), Served: q.Served()}
	return &Result{Schedule: &sched, Delay: delay, Report: metrics.BuildReport(tr, &sched, delay), PeakQueue: peak}, nil
}

// TestRunMatchesSessionModel: a single session run as one slot of Slots
// is the old single-session loop, schedule, delays and report alike. The
// policies include ones whose rate moves while the queue stands empty,
// which only a policy asked on idle ticks can do.
func TestRunMatchesSessionModel(t *testing.T) {
	policies := map[string]func() Allocator{
		"threshold": func() Allocator { return thresholdAlloc(256) },
		"fixed":     func() Allocator { return fixedRate(40) },
		"clock": func() Allocator { // a rate that cycles with the tick, idle or not
			return AllocatorFunc(func(t bw.Tick, _, queued bw.Bits) bw.Rate { return bw.Rate(t%7)*16 + bw.Rate(queued)/4 })
		},
		"decay": func() Allocator { // falls by one a tick once its session is idle
			var r bw.Rate
			return AllocatorFunc(func(_ bw.Tick, arrived, queued bw.Bits) bw.Rate {
				if arrived > 0 {
					r = max(r, bw.Rate(queued))
				} else if queued == 0 && r > 0 {
					r--
				}
				return max(r, 1)
			})
		},
	}
	r := NewRunner()
	for name, mk := range policies {
		for seed := uint64(1); seed <= 4; seed++ {
			tr := runnerTrace(seed, 300)
			want, err := sessionModel(tr, mk())
			if err != nil {
				t.Fatalf("%s seed %d: model: %v", name, seed, err)
			}
			got, err := r.Run(tr, mk(), Options{})
			if err != nil {
				t.Fatalf("%s seed %d: Run: %v", name, seed, err)
			}
			if got.Schedule.Len() != want.Schedule.Len() {
				t.Fatalf("%s seed %d: %d ticks, want %d", name, seed, got.Schedule.Len(), want.Schedule.Len())
			}
			sameResult(t, got, want)
		}
	}
}

// TestMultiRunQuantiles: a k-session run reports the delay quantiles of
// every bit it served, as a single-session run does, and a runner reused
// across session counts starts each run's histogram empty.
func TestMultiRunQuantiles(t *testing.T) {
	a, b := runnerTrace(1, 200), runnerTrace(2, 200)
	r := NewMultiRunner()
	for _, sessions := range [][]*trace.Trace{{a, b}, {a}, {a, b}} {
		res, err := r.Run(trace.MustNewMulti(sessions), perSession(len(sessions), 64), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Delay.P99 == 0 || res.Delay.P99 > res.Delay.Max || res.Delay.P50 > res.Delay.P99 {
			t.Errorf("k=%d: P50 %d, P99 %d, Max %d", len(sessions), res.Delay.P50, res.Delay.P99, res.Delay.Max)
		}
		if len(sessions) == 1 {
			alone, err := Run(a, AllocatorFunc(func(_ bw.Tick, _, queued bw.Bits) bw.Rate { return min(bw.Rate(queued), 64) }), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Delay != alone.Delay {
				t.Errorf("one session: delay %+v, Run's %+v", res.Delay, alone.Delay)
			}
		}
	}
}

// TestSeparateServesEachSessionAlone: k single-session policies side by
// side are k single-session runs.
func TestSeparateServesEachSessionAlone(t *testing.T) {
	trs := []*trace.Trace{runnerTrace(3, 150), runnerTrace(4, 150), runnerTrace(5, 150)}
	sep := &Separate{Allocs: []Allocator{thresholdAlloc(32), fixedRate(50), thresholdAlloc(300)}}
	res, err := RunMulti(trace.MustNewMulti(trs), sep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trs {
		one, err := Run(tr, sep.Allocs[i], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Sessions[i]; got.Len() > one.Schedule.Len() || got.Changes() != one.Schedule.Changes() ||
			got.Integral(0, one.Schedule.Len()) != one.Schedule.Integral(0, one.Schedule.Len()) {
			t.Errorf("session %d: %d changes over %d ticks, alone %d over %d", i, got.Changes(), got.Len(), one.Schedule.Changes(), one.Schedule.Len())
		}
		if res.SessionDelays[i] != one.Delay.Max {
			t.Errorf("session %d: max delay %d, alone %d", i, res.SessionDelays[i], one.Delay.Max)
		}
	}
}

// TestRunnerSteadyStateZeroAllocs: once a Runner's storage is warm, a run
// — of whichever trace, and reading its schedule back through a cursor —
// performs no heap allocations. A MultiRunner builds its report once per run (the
// aggregate trace, the cursors that sum the schedules: a fixed handful of
// objects); its tick loop allocates nothing, so a run of eight times the
// ticks allocates exactly as often.
func TestRunnerSteadyStateZeroAllocs(t *testing.T) {
	trs := []*trace.Trace{runnerTrace(9, 512), runnerTrace(10, 512)}
	alloc := thresholdAlloc(256)
	r := NewRunner()
	for _, tr := range trs { // warm-up
		if _, err := r.Run(tr, alloc, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	runs := 0
	avg := testing.AllocsPerRun(10, func() {
		runs++
		res, err := r.Run(trs[runs%2], alloc, Options{})
		if err != nil {
			t.Error(err)
			return
		}
		cur := res.Schedule.Cursor()
		var sum bw.Bits
		for tick := bw.Tick(0); tick < res.Schedule.Len(); tick++ {
			sum += cur.At(tick)
		}
		if whole := cur.Integral(0, res.Schedule.Len()); sum != whole || whole != res.Report.TotalAllocated {
			t.Errorf("cursor scan sums to %d, Integral to %d, the report to %d", sum, whole, res.Report.TotalAllocated)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Runner.Run allocates %.1f objects per run, want 0", avg)
	}

	mr := NewMultiRunner()
	perRun := func(n bw.Tick) float64 {
		m := trace.MustNewMulti([]*trace.Trace{runnerTrace(1, n), runnerTrace(2, n), runnerTrace(3, n)})
		malloc := perSession(3, 256)
		run := func() {
			if _, err := mr.Run(m, malloc, Options{}); err != nil {
				t.Error(err)
			}
		}
		run() // warm-up
		return testing.AllocsPerRun(10, run)
	}
	if long, short := perRun(4096), perRun(512); long != short {
		t.Errorf("MultiRunner.Run allocates %.0f objects over 4096 ticks and %.0f over 512; its tick loop must add 0", long, short)
	}
}

// TestRunnerErrorLeavesReusable: a failed run (queue never drains) must
// not poison the Runner for subsequent runs.
func TestRunnerErrorLeavesReusable(t *testing.T) {
	r := NewRunner()
	bad := trace.MustNew([]bw.Bits{10})
	if _, err := r.Run(bad, AllocatorFunc(func(bw.Tick, bw.Bits, bw.Bits) bw.Rate { return 0 }),
		Options{DrainBudget: 8}); err == nil {
		t.Fatal("expected drain failure")
	}
	tr := runnerTrace(2, 64)
	got, err := r.Run(tr, thresholdAlloc(128), Options{})
	if err != nil {
		t.Fatalf("run after failure: %v", err)
	}
	want, _ := Run(tr, thresholdAlloc(128), Options{})
	sameResult(t, got, want)
}

// perSession serves each of k sessions its whole queue, capped: a
// Separate over one stateless policy.
func perSession(k int, cap bw.Rate) *Separate {
	allocs := make([]Allocator, k)
	for i := range allocs {
		allocs[i] = thresholdAlloc(cap)
	}
	return &Separate{Allocs: allocs}
}

// TestMultiRunnerMatchesRunMulti reuses one MultiRunner across varying
// session counts and compares every field against fresh RunMulti calls.
func TestMultiRunnerMatchesRunMulti(t *testing.T) {
	r := NewMultiRunner()
	for _, k := range []int{3, 1, 5, 2} {
		sessions := make([]*trace.Trace, k)
		for i := range sessions {
			sessions[i] = runnerTrace(uint64(10*k+i), 96)
		}
		m := trace.MustNewMulti(sessions)
		got, err := r.Run(m, perSession(k, 256), Options{})
		if err != nil {
			t.Fatalf("k=%d: MultiRunner.Run: %v", k, err)
		}
		want, err := RunMulti(m, perSession(k, 256), Options{})
		if err != nil {
			t.Fatalf("k=%d: RunMulti: %v", k, err)
		}
		if len(got.Sessions) != len(want.Sessions) {
			t.Fatalf("k=%d: %d sessions, want %d", k, len(got.Sessions), len(want.Sessions))
		}
		for i := range want.Sessions {
			if !got.Sessions[i].Equal(want.Sessions[i]) {
				t.Errorf("k=%d: session %d schedule differs", k, i)
			}
		}
		if !got.Total.Equal(want.Total) {
			t.Errorf("k=%d: total schedule differs", k)
		}
		if got.Delay != want.Delay || got.Report != want.Report {
			t.Errorf("k=%d: delay/report differ", k)
		}
		for i := range want.SessionDelays {
			if got.SessionDelays[i] != want.SessionDelays[i] {
				t.Errorf("k=%d: session %d delay %d, want %d",
					k, i, got.SessionDelays[i], want.SessionDelays[i])
			}
		}
	}
}

// TestSeparateLeaveEmptiesTheQueue: a busy slot served by Separate is
// vacated and its session leaves; the policy's first call for the slot's
// next tenant is handed that tenant's bits alone.
func TestSeparateLeaveEmptiesTheQueue(t *testing.T) {
	s := NewSlots(2)
	var seen [2]bw.Bits
	slow := AllocatorFunc(func(_ bw.Tick, arrived, queued bw.Bits) bw.Rate {
		seen = [2]bw.Bits{arrived, queued}
		return 1
	})
	sep := &Separate{Allocs: []Allocator{slow, fixedRate(0)}}
	s.Add(0, 10)
	for tick := bw.Tick(0); tick < 3; tick++ {
		if err := s.Step(tick, sep, new(Round)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Queue(0).Bits() != 7 || seen != [2]bw.Bits{0, 8} {
		t.Fatalf("first tenant: %d bits queued, policy handed %v", s.Queue(0).Bits(), seen)
	}
	s.Vacate(0)
	sep.Leave(0)
	s.Add(0, 3)
	if err := s.Step(3, sep, new(Round)); err != nil {
		t.Fatal(err)
	}
	if seen != [2]bw.Bits{3, 3} {
		t.Errorf("next tenant's first call handed arrived, queued %v, want [3 3]", seen)
	}
}

// TestSeparateReusedStartsEmpty: a Separate run again starts with every
// queue empty, also after a run that failed with bits queued — one that
// never drained, and one whose policy broke the contract at its first
// bits — and so gives what a fresh one gives.
func TestSeparateReusedStartsEmpty(t *testing.T) {
	m := trace.MustNewMulti([]*trace.Trace{runnerTrace(7, 120), runnerTrace(8, 120)})
	want, err := RunMulti(m, perSession(2, 16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fail func(queued bw.Bits) bw.Rate // nil: the policy serves
	policy := AllocatorFunc(func(_ bw.Tick, _, queued bw.Bits) bw.Rate {
		if fail != nil {
			return fail(queued)
		}
		return min(bw.Rate(queued), 16)
	})
	sep := &Separate{Allocs: []Allocator{policy, policy}}
	r := NewMultiRunner()
	for _, tc := range []struct {
		name string
		fail func(queued bw.Bits) bw.Rate
		opts Options
	}{
		{"never drained", func(bw.Bits) bw.Rate { return 0 }, Options{DrainBudget: 4}},
		{"negative rate", func(queued bw.Bits) bw.Rate { return -min(bw.Rate(queued), 1) }, Options{}},
	} {
		fail = tc.fail
		if _, err := r.Run(m, sep, tc.opts); err == nil {
			t.Fatalf("%s: the failing run succeeded", tc.name)
		}
		fail = nil
		got, err := r.Run(m, sep, Options{})
		if err != nil {
			t.Fatalf("after %s: %v", tc.name, err)
		}
		for i := range want.Sessions {
			if !got.Sessions[i].Equal(want.Sessions[i]) {
				t.Errorf("after %s: session %d's schedule differs from a fresh Separate's", tc.name, i)
			}
		}
		if got.Delay != want.Delay {
			t.Errorf("after %s: delay %+v, a fresh Separate's %+v", tc.name, got.Delay, want.Delay)
		}
	}
}

// TestSeparateKeepsQueuesThroughARejectedRound: a round the kernel
// rejects for one policy's negative rate serves no session, so
// Separate's copies keep what arrived, and the next round hands every
// policy the queue the kernel holds.
func TestSeparateKeepsQueuesThroughARejectedRound(t *testing.T) {
	s := NewSlots(2)
	var seen bw.Bits
	serve := AllocatorFunc(func(_ bw.Tick, _, queued bw.Bits) bw.Rate {
		seen = queued
		return 4
	})
	broken := true
	other := AllocatorFunc(func(bw.Tick, bw.Bits, bw.Bits) bw.Rate {
		if broken {
			return -1
		}
		return 0
	})
	sep := &Separate{Allocs: []Allocator{serve, other}}
	s.Add(0, 10)
	if err := s.Step(0, sep, new(Round)); err == nil {
		t.Fatal("a negative rate accepted")
	}
	broken = false
	if err := s.Step(1, sep, new(Round)); err != nil {
		t.Fatal(err)
	}
	if seen != 10 || s.Queue(0).Bits() != 6 {
		t.Errorf("after the rejected round: policy handed %d bits, the kernel held 10 and now %d", seen, s.Queue(0).Bits())
	}
}
