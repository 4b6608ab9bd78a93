package core

import (
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// collect is a minimal Observer recording every event.
type collect struct {
	events []obs.Event
}

func (c *collect) Event(e obs.Event) { c.events = append(c.events, e) }

func (c *collect) count(t obs.EventType) int {
	n := 0
	for _, e := range c.events {
		if e.Type == t {
			n++
		}
	}
	return n
}

// runObserved drives alloc over a planted workload with an observer
// attached and returns the recorded events.
func runObserved(t *testing.T, alloc sim.MultiAllocator, seed uint64, p MultiParams) *collect {
	t.Helper()
	c := &collect{}
	o, ok := alloc.(obs.Observable)
	if !ok {
		t.Fatalf("%T does not implement obs.Observable", alloc)
	}
	o.SetObserver(c)
	pl := plantedWorkload(t, seed, p.K, p.BO, p.DO)
	if _, err := sim.RunMulti(pl.Multi, alloc, sim.Options{}); err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	return c
}

func TestPhasedEmitsEvents(t *testing.T) {
	p := MultiParams{K: 4, BO: 64, DO: 8}
	alg := MustNewPhased(p)
	c := runObserved(t, alg, 1, p)
	if len(c.events) == 0 {
		t.Fatal("phased emitted no events")
	}
	if c.count(obs.EventRenegotiateUp) == 0 {
		t.Error("no renegotiate_up events from a loaded phased run")
	}
	// Stage resets are workload-dependent; the trace must agree with the
	// policy's own accounting either way.
	if got, want := c.count(obs.EventStageReset), alg.Stats().Resets; got != want {
		t.Errorf("stage_reset events = %d, policy counted %d resets", got, want)
	}
	for _, e := range c.events {
		switch e.Type {
		case obs.EventRenegotiateUp:
			if e.NewRate <= e.OldRate {
				t.Fatalf("renegotiate_up with non-increasing rate: %+v", e)
			}
			if e.Session < 0 || e.Session >= p.K {
				t.Fatalf("renegotiate_up with bad session: %+v", e)
			}
			if e.Rule == "" {
				t.Fatalf("renegotiate_up without a rule: %+v", e)
			}
		case obs.EventRenegotiateDown:
			if e.NewRate >= e.OldRate {
				t.Fatalf("renegotiate_down with non-decreasing rate: %+v", e)
			}
		}
	}
}

func TestContinuousEmitsEvents(t *testing.T) {
	p := MultiParams{K: 4, BO: 64, DO: 8}
	c := runObserved(t, MustNewContinuous(p), 2, p)
	if c.count(obs.EventRenegotiateUp) == 0 {
		t.Error("no renegotiate_up (test-spill) events from continuous")
	}
	if c.count(obs.EventRenegotiateDown) == 0 {
		t.Error("no renegotiate_down (reduce) events from continuous")
	}
	// Every test-spill raise engages the overflow channel.
	up, spill := c.count(obs.EventRenegotiateUp), c.count(obs.EventOverflow)
	if spill == 0 || spill > up {
		t.Errorf("overflow events = %d with %d raises", spill, up)
	}
}

func TestCombinedEmitsEvents(t *testing.T) {
	p := MultiParams{K: 4, BO: 64, DO: 8}
	alg := MustNewCombined(CombinedParams{
		K: p.K, BA: bw.NextPow2(8 * p.BO), DO: p.DO, UO: 0.5, W: 2 * p.DO,
	})
	c := runObserved(t, alg, 3, p)
	if len(c.events) == 0 {
		t.Fatal("combined emitted no events")
	}
	if c.count(obs.EventRenegotiateUp)+c.count(obs.EventRenegotiateDown) == 0 {
		t.Error("combined run produced no renegotiations")
	}
}

// TestObserverOverheadWhenUnset checks the policies run identically with
// no observer attached: same schedules, no panics on the nil path.
func TestObserverOverheadWhenUnset(t *testing.T) {
	p := MultiParams{K: 4, BO: 64, DO: 8}
	plain := MustNewPhased(p)
	observed := MustNewPhased(p)
	observed.SetObserver(&collect{})

	plA := plantedWorkload(t, 7, p.K, p.BO, p.DO)
	plB := plantedWorkload(t, 7, p.K, p.BO, p.DO)
	resA, err := sim.RunMulti(plA.Multi, plain, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := sim.RunMulti(plB.Multi, observed, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resA.SessionChanges() != resB.SessionChanges() || resA.Delay.Max != resB.Delay.Max {
		t.Errorf("observer changed behavior: changes %d/%d, max delay %d/%d",
			resA.SessionChanges(), resB.SessionChanges(), resA.Delay.Max, resB.Delay.Max)
	}
}

// runObservedSingle drives a single-session allocator over a clamped
// on/off workload with an observer attached.
func runObservedSingle(t *testing.T, alloc sim.Allocator, p SingleParams) (*collect, *sim.Result) {
	t.Helper()
	c := &collect{}
	o, ok := alloc.(obs.Observable)
	if !ok {
		t.Fatalf("%T does not implement obs.Observable", alloc)
	}
	o.SetObserver(c)
	tr := feasibleWorkloads(p, 800)["onoff"]
	res, err := sim.Run(tr, alloc, sim.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return c, res
}

// checkSingleEvents holds the assertions on a single-session run's
// trace: renegotiations carry session 0 and a rule, rates move in the
// advertised direction, the stage-reset trace agrees with Stats, and
// there is exactly one renegotiation per allocation change the run
// counted — the paper's cost measure, event for event.
func checkSingleEvents(t *testing.T, c *collect, resets int, res *sim.Result) {
	t.Helper()
	if len(c.events) == 0 {
		t.Fatal("single-session run emitted no events")
	}
	if c.count(obs.EventRenegotiateUp) == 0 {
		t.Error("no renegotiate_up events from a loaded run")
	}
	if got, want := c.count(obs.EventStageReset), resets; got != want {
		t.Errorf("stage_reset events = %d, policy counted %d resets", got, want)
	}
	if got, want := c.count(obs.EventRenegotiateUp)+c.count(obs.EventRenegotiateDown), res.Report.Changes; got != want {
		t.Errorf("renegotiation events = %d, run counted %d changes", got, want)
	}
	for _, e := range c.events {
		switch e.Type {
		case obs.EventRenegotiateUp, obs.EventRenegotiateDown:
			if e.Session != 0 {
				t.Fatalf("single-session renegotiation with session %d: %+v", e.Session, e)
			}
			if e.Rule == "" {
				t.Fatalf("renegotiation without a rule: %+v", e)
			}
			if e.Type == obs.EventRenegotiateUp && e.NewRate <= e.OldRate {
				t.Fatalf("renegotiate_up with non-increasing rate: %+v", e)
			}
			if e.Type == obs.EventRenegotiateDown && e.NewRate >= e.OldRate {
				t.Fatalf("renegotiate_down with non-decreasing rate: %+v", e)
			}
		}
	}
}

func TestSingleSessionEmitsEvents(t *testing.T) {
	p := singleParams()
	alg := MustNewSingleSession(p)
	c, res := runObservedSingle(t, alg, p)
	checkSingleEvents(t, c, alg.Stats().Resets, res)
}

// TestSingleObserverNoBehaviorChange mirrors the multi-session overhead
// test: attaching an observer must not alter the schedule.
func TestSingleObserverNoBehaviorChange(t *testing.T) {
	p := singleParams()
	tr := feasibleWorkloads(p, 800)["pareto"]

	plain := MustNewSingleSession(p)
	observed := MustNewSingleSession(p)
	observed.SetObserver(&collect{})

	resA, err := sim.Run(tr, plain, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := sim.Run(tr, observed, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resA.Report.Changes != resB.Report.Changes || resA.Delay.Max != resB.Delay.Max {
		t.Errorf("observer changed behavior: changes %d/%d, max delay %d/%d",
			resA.Report.Changes, resB.Report.Changes, resA.Delay.Max, resB.Delay.Max)
	}
}
