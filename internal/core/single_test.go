package core

import (
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
	"dynbw/internal/traffic"
)

func singleParams() SingleParams {
	return SingleParams{BA: 64, DO: 8, UO: 0.5, W: 16}
}

func TestNewSingleSessionValidates(t *testing.T) {
	bad := []SingleParams{
		{BA: 0, DO: 1, UO: 0.5, W: 1},
		{BA: 3, DO: 1, UO: 0.5, W: 1},  // not a power of two
		{BA: 8, DO: 0, UO: 0.5, W: 1},  // DO < 1
		{BA: 8, DO: 2, UO: 0, W: 2},    // UO out of range
		{BA: 8, DO: 2, UO: 1.01, W: 2}, // UO out of range
		{BA: 8, DO: 4, UO: 0.5, W: 2},  // W < DO
	}
	for i, p := range bad {
		if _, err := NewSingleSession(p); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
	if _, err := NewSingleSession(singleParams()); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestSingleSessionIdle(t *testing.T) {
	s := MustNewSingleSession(singleParams())
	for tick := bw.Tick(0); tick < 100; tick++ {
		if r := s.Rate(tick, 0, 0); r != 0 {
			t.Fatalf("tick %d: idle rate = %d, want 0", tick, r)
		}
	}
	if st := s.Stats(); st.Resets != 0 {
		t.Errorf("idle traffic triggered %d resets", st.Resets)
	}
}

// feasibleWorkloads returns a named set of traffic patterns, each clamped
// to be serveable with (BA, DO) so the paper's feasibility assumption
// holds.
func feasibleWorkloads(p SingleParams, n bw.Tick) map[string]*trace.Trace {
	mk := func(g traffic.Generator) *trace.Trace {
		return traffic.ClampTrace(g.Generate(n), p.BA, p.DO)
	}
	return map[string]*trace.Trace{
		"cbr":    mk(traffic.CBR{Rate: p.BA / 4}),
		"onoff":  mk(traffic.OnOff{Seed: 1, PeakRate: p.BA / 2, MeanOn: 12, MeanOff: 20}),
		"pareto": mk(traffic.ParetoBurst{Seed: 2, Alpha: 1.5, MinBurst: 40, MeanGap: 12, SpreadTicks: 2}),
		"video": mk(traffic.VBRVideo{
			Seed: 3, FrameInterval: 2, IBits: 90, PBits: 40, BBits: 10,
			Jitter: 0.2, SceneChangeProb: 0.05,
		}),
		"spike": mk(traffic.Spike{Seed: 4, Base: 2, SpikeBits: 60, SpikeProb: 0.03}),
	}
}

func TestSingleSessionDelayGuarantee(t *testing.T) {
	p := singleParams()
	for name, tr := range feasibleWorkloads(p, 800) {
		t.Run(name, func(t *testing.T) {
			s := MustNewSingleSession(p)
			res, err := sim.Run(tr, s, sim.Options{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			pr := s.Promise()
			if res.Delay.Max > pr.DA {
				t.Errorf("max delay %d exceeds guarantee DA = %d", res.Delay.Max, pr.DA)
			}
			if got := res.Schedule.MaxRate(); got > pr.BA {
				t.Errorf("allocated %d exceeds BA %d", got, pr.BA)
			}
			if st := s.Stats(); st.InfeasibleTicks > 0 {
				t.Errorf("feasible workload flagged infeasible %d times", st.InfeasibleTicks)
			}
		})
	}
}

func TestSingleSessionUtilizationGuarantee(t *testing.T) {
	p := singleParams()
	for name, tr := range feasibleWorkloads(p, 800) {
		t.Run(name, func(t *testing.T) {
			s := MustNewSingleSession(p)
			res, err := sim.Run(tr, s, sim.Options{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			pr := s.Promise()
			got := metrics.FlexibleUtilizationMin(tr, res.Schedule, 1, pr.UW)
			if got < pr.UA {
				t.Errorf("flexible utilization %v below guarantee UA = %v", got, pr.UA)
			}
		})
	}
}

func TestSingleSessionPowerOfTwoAllocations(t *testing.T) {
	p := singleParams()
	tr := feasibleWorkloads(p, 400)["pareto"]
	s := MustNewSingleSession(p)
	res, err := sim.Run(tr, s, sim.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, seg := range res.Schedule.Segments() {
		if seg.Rate != 0 && !bw.IsPow2(seg.Rate) {
			t.Errorf("allocation %d at tick %d is not a power of two", seg.Rate, seg.Start)
		}
	}
}

func TestSingleSessionChangesPerStageBound(t *testing.T) {
	// Theorem 6 accounting: the online makes at most log2(BA)+1 changes
	// per stage (monotone powers of two within the stage, plus the RESET
	// jump to BA).
	p := singleParams()
	for name, tr := range feasibleWorkloads(p, 800) {
		t.Run(name, func(t *testing.T) {
			s := MustNewSingleSession(p)
			res, err := sim.Run(tr, s, sim.Options{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			st := s.Stats()
			// Each stage contributes at most LogBA()+1 rises plus 1 reset
			// change, and dropping back after a reset adds one more.
			maxPerStage := p.LogBA() + 3
			if limit := st.Stages * maxPerStage; res.Report.Changes > limit {
				t.Errorf("changes %d > %d stages x %d", res.Report.Changes, st.Stages, maxPerStage)
			}
		})
	}
}

func TestSingleSessionMonotoneWithinStage(t *testing.T) {
	// Within one stage (between resets), the allocation never decreases.
	p := singleParams()
	tr := feasibleWorkloads(p, 600)["onoff"]
	s := MustNewSingleSession(p)

	var prev bw.Rate
	inStage := true
	prevResets := 0
	probe := sim.AllocatorFunc(func(tick bw.Tick, arrived, queued bw.Bits) bw.Rate {
		r := s.Rate(tick, arrived, queued)
		st := s.Stats()
		if st.Resets == prevResets && st.ResetTicks == 0 && inStage && r < prev {
			t.Errorf("tick %d: allocation decreased %d -> %d within a stage", tick, prev, r)
		}
		if st.Resets != prevResets || st.ResetTicks > 0 {
			// A reset happened: allow the drop at the next stage.
			prev = 0
			prevResets = st.Resets
		} else {
			prev = r
		}
		return r
	})
	if _, err := sim.Run(tr, probe, sim.Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSingleSessionStageForcedByUtilization(t *testing.T) {
	// A big burst followed by silence must end the stage: low stays high
	// while the utilization bound collapses.
	p := singleParams()
	arrivals := make([]bw.Bits, 200)
	for i := 0; i < 10; i++ {
		arrivals[i] = 40
	}
	tr := traffic.ClampTrace(trace.MustNew(arrivals), p.BA, p.DO)
	s := MustNewSingleSession(p)
	if _, err := sim.Run(tr, s, sim.Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := s.Stats(); st.Resets == 0 {
		t.Error("burst-then-silence did not force a stage end")
	}
}

func TestSingleSessionStatsAccounting(t *testing.T) {
	p := singleParams()
	tr := feasibleWorkloads(p, 500)["spike"]
	s := MustNewSingleSession(p)
	if _, err := sim.Run(tr, s, sim.Options{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := s.Stats()
	if st.Stages < 1 {
		t.Errorf("Stages = %d, want >= 1", st.Stages)
	}
	if st.Stages != st.Resets+1 {
		t.Errorf("Stages = %d, Resets = %d: want Stages = Resets+1", st.Stages, st.Resets)
	}
}
