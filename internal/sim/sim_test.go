package sim

import (
	"errors"
	"strings"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/trace"
)

// fixedRate allocates a constant rate forever.
func fixedRate(r bw.Rate) Allocator {
	return AllocatorFunc(func(bw.Tick, bw.Bits, bw.Bits) bw.Rate { return r })
}

func TestRunFixedRateDrains(t *testing.T) {
	tr := trace.MustNew([]bw.Bits{10, 0, 0, 10})
	res, err := Run(tr, fixedRate(5), Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.TotalArrivals != 20 {
		t.Errorf("TotalArrivals = %d", res.Report.TotalArrivals)
	}
	if res.Delay.Served != 20 {
		t.Errorf("Served = %d", res.Delay.Served)
	}
	// 10 bits at rate 5: last bit of the first burst served at tick 1
	// (delay 1); second burst arrives at 3, served over ticks 3-4 (the
	// first burst is gone by end of tick 1), delay 1.
	if res.Delay.Max != 1 {
		t.Errorf("MaxDelay = %d, want 1", res.Delay.Max)
	}
	if res.Report.Changes != 1 {
		t.Errorf("Changes = %d, want 1 (constant rate)", res.Report.Changes)
	}
}

func TestRunZeroRateFailsToDrain(t *testing.T) {
	tr := trace.MustNew([]bw.Bits{1})
	_, err := Run(tr, fixedRate(0), Options{})
	if !errors.Is(err, ErrQueueNeverDrained) {
		t.Fatalf("err = %v, want ErrQueueNeverDrained", err)
	}
}

func TestRunNegativeRateRejected(t *testing.T) {
	tr := trace.MustNew([]bw.Bits{1})
	_, err := Run(tr, fixedRate(-1), Options{})
	if err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestRunEmptyTrace(t *testing.T) {
	res, err := Run(trace.MustNew(nil), fixedRate(5), Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Schedule.Len() != 0 || res.Delay.Served != 0 {
		t.Errorf("empty run produced work: %+v", res.Report)
	}
}

func TestRunExtendsPastTraceEnd(t *testing.T) {
	// Rate 1, burst of 5 at tick 0: needs 4 extra ticks past the
	// 1-tick trace.
	tr := trace.MustNew([]bw.Bits{5})
	res, err := Run(tr, fixedRate(1), Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Schedule.Len() != 5 {
		t.Errorf("Schedule.Len = %d, want 5", res.Schedule.Len())
	}
	if res.Delay.Max != 4 {
		t.Errorf("MaxDelay = %d, want 4", res.Delay.Max)
	}
}

func TestRunAllocatorSeesCausalState(t *testing.T) {
	tr := trace.MustNew([]bw.Bits{3, 7, 0})
	var seenArrived []bw.Bits
	var seenQueued []bw.Bits
	alloc := AllocatorFunc(func(t bw.Tick, arrived, queued bw.Bits) bw.Rate {
		seenArrived = append(seenArrived, arrived)
		seenQueued = append(seenQueued, queued)
		return 5
	})
	if _, err := Run(tr, alloc, Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantArrived := []bw.Bits{3, 7, 0}
	wantQueued := []bw.Bits{3, 7 + 0, 2} // tick1: 3 arrived-3 served +7 = 7; tick2: 7-5=2
	for i := range wantArrived {
		if seenArrived[i] != wantArrived[i] {
			t.Errorf("arrived[%d] = %d, want %d", i, seenArrived[i], wantArrived[i])
		}
		if seenQueued[i] != wantQueued[i] {
			t.Errorf("queued[%d] = %d, want %d", i, seenQueued[i], wantQueued[i])
		}
	}
}

func TestRunMulti(t *testing.T) {
	m := trace.MustNewMulti([]*trace.Trace{
		trace.MustNew([]bw.Bits{4, 0, 0, 0}),
		trace.MustNew([]bw.Bits{0, 0, 6, 0}),
	})
	busy := AllocatorFunc(func(_ bw.Tick, _, queued bw.Bits) bw.Rate {
		if queued > 0 {
			return 2
		}
		return 0
	})
	res, err := RunMulti(m, &Separate{Allocs: []Allocator{busy, busy}}, Options{})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if res.Delay.Served != 10 {
		t.Errorf("Served = %d", res.Delay.Served)
	}
	// Session 0: 4 bits at rate 2 -> done at tick 1, delay 1.
	// Session 1: 6 bits at rate 2 -> done at tick 4, delay 2.
	if res.SessionDelays[0] != 1 || res.SessionDelays[1] != 2 {
		t.Errorf("SessionDelays = %v", res.SessionDelays)
	}
	if res.Delay.Max != 2 {
		t.Errorf("MaxDelay = %d", res.Delay.Max)
	}
	if res.MaxTotalRate() != 2 {
		t.Errorf("MaxTotalRate = %d", res.MaxTotalRate())
	}
	if res.SessionChanges() == 0 {
		t.Error("SessionChanges = 0")
	}
}

func TestRunMultiWrongRateCount(t *testing.T) {
	m := trace.MustNewMulti([]*trace.Trace{trace.MustNew([]bw.Bits{1})})
	alloc := &Separate{Allocs: []Allocator{fixedRate(1), fixedRate(1)}}
	if _, err := RunMulti(m, alloc, Options{}); err == nil {
		t.Fatal("wrong rate count accepted")
	}
}

func TestRunMultiNegativeRate(t *testing.T) {
	m := trace.MustNewMulti([]*trace.Trace{trace.MustNew([]bw.Bits{1})})
	if _, err := RunMulti(m, &Separate{Allocs: []Allocator{fixedRate(-3)}}, Options{}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestRunMultiNeverDrains(t *testing.T) {
	m := trace.MustNewMulti([]*trace.Trace{trace.MustNew([]bw.Bits{5})})
	_, err := RunMulti(m, &Separate{Allocs: []Allocator{fixedRate(0)}}, Options{})
	if !errors.Is(err, ErrQueueNeverDrained) {
		t.Fatalf("err = %v, want ErrQueueNeverDrained", err)
	}
}

// denseOnly hides an allocator's sparse form.
type denseOnly struct{ MultiAllocator }

// TestRunMultiRejectsDenseOnly: the kernel runs one form of policy, and
// a run handed only the dense one fails before its first tick, naming
// the allocator's type.
func TestRunMultiRejectsDenseOnly(t *testing.T) {
	m := trace.MustNewMulti([]*trace.Trace{trace.MustNew([]bw.Bits{5})})
	_, err := NewMultiRunner().Run(m, denseOnly{perSession(1, 8)}, Options{})
	if err == nil || !strings.Contains(err.Error(), "sim.denseOnly") {
		t.Fatalf("err = %v, want one naming sim.denseOnly", err)
	}
}
