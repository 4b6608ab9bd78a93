package sim

import (
	"testing"

	"dynbw/internal/bw"
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

// TestRunnerSteadyStateZeroAllocs: once a Runner's storage is warm, a run
// — and reading its schedule back through a cursor — performs no heap
// allocations. A MultiRunner builds its report once per run (the
// aggregate trace, the cursors that sum the schedules, the adapter in
// front of a dense policy: a fixed handful of objects); its tick loop
// allocates nothing, so a run of eight times the ticks allocates exactly
// as often.
func TestRunnerSteadyStateZeroAllocs(t *testing.T) {
	tr := runnerTrace(9, 512)
	alloc := thresholdAlloc(256)
	r := NewRunner()
	if _, err := r.Run(tr, alloc, Options{}); err != nil { // warm-up
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		res, err := r.Run(tr, alloc, Options{})
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
		malloc := &perSessionAlloc{cap: 256}
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

// perSessionAlloc serves each session's queue, capped, reusing one rates
// slice as the MultiAllocator contract permits.
type perSessionAlloc struct {
	cap   bw.Rate
	rates []bw.Rate
}

func (a *perSessionAlloc) Rates(_ bw.Tick, _, queued []bw.Bits) []bw.Rate {
	if len(a.rates) != len(queued) {
		a.rates = make([]bw.Rate, len(queued))
	}
	for i, q := range queued {
		r := bw.Rate(q)
		if r > a.cap {
			r = a.cap
		}
		a.rates[i] = r
	}
	return a.rates
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
		got, err := r.Run(m, &perSessionAlloc{cap: 256}, Options{})
		if err != nil {
			t.Fatalf("k=%d: MultiRunner.Run: %v", k, err)
		}
		want, err := RunMulti(m, &perSessionAlloc{cap: 256}, Options{})
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
