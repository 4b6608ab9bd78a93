package core

import (
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/sim"
)

func TestCumHighTrackerWarmup(t *testing.T) {
	ct := NewCumHighTracker(4, 0.5, 100)
	for i := 0; i < 3; i++ {
		if got := ct.Observe(10); got != 100 {
			t.Errorf("tick %d: high = %d, want cap during warm-up", i, got)
		}
	}
	// Age 4, sum 40: high = 40 / (0.5*4) = 20.
	if got := ct.Observe(10); got != 20 {
		t.Errorf("high = %d, want 20", got)
	}
}

func TestCumHighTrackerGlobalForgiveness(t *testing.T) {
	// The global definition forgives idle periods compensated by earlier
	// traffic: after a big prefix, zeros barely move the average.
	ct := NewCumHighTracker(2, 0.5, 1<<20)
	ct.Observe(1000)
	ct.Observe(1000) // high = 2000/(0.5*2) = 2000
	first := ct.High()
	ct.Observe(0) // high = 2000/(0.5*3) = 1333
	second := ct.High()
	if second >= first {
		t.Errorf("high did not decrease: %d -> %d", first, second)
	}
	if second < first/2 {
		t.Errorf("global high dropped too sharply (%d -> %d); it should average", first, second)
	}
}

func TestCumHighTrackerCap(t *testing.T) {
	ct := NewCumHighTracker(1, 0.001, 64)
	if got := ct.Observe(1 << 30); got != 64 {
		t.Errorf("high = %d, want cap 64", got)
	}
}

func TestGlobalUtilSingleGuarantees(t *testing.T) {
	p := singleParams()
	for name, tr := range feasibleWorkloads(p, 800) {
		t.Run(name, func(t *testing.T) {
			s := MustNewGlobalUtilSingle(p)
			res, err := sim.Run(tr, s, sim.Options{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			pr := s.Promise()
			if res.Delay.Max > pr.DA {
				t.Errorf("max delay %d exceeds DA = %d", res.Delay.Max, pr.DA)
			}
			if got := res.Schedule.MaxRate(); got > pr.BA {
				t.Errorf("allocated %d exceeds BA %d", got, pr.BA)
			}
		})
	}
}

func TestGlobalUtilFewerStagesThanLocal(t *testing.T) {
	// The global definition is more forgiving (idle windows are
	// compensated by earlier busy periods), so it should not end stages
	// more often than the local one on bursty traffic.
	p := singleParams()
	tr := feasibleWorkloads(p, 1200)["onoff"]

	local := MustNewSingleSession(p)
	if _, err := sim.Run(tr, local, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	global := MustNewGlobalUtilSingle(p)
	if _, err := sim.Run(tr, global, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if global.Stats().Resets > local.Stats().Resets {
		t.Errorf("global-util variant reset more often (%d) than local (%d)",
			global.Stats().Resets, local.Stats().Resets)
	}
}

func TestUnquantizedGuaranteesAndCost(t *testing.T) {
	p := singleParams()
	tr := feasibleWorkloads(p, 800)["pareto"]

	quant := MustNewSingleSession(p)
	quantRes, err := sim.Run(tr, quant, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := MustNewUnquantizedSingle(p)
	exactRes, err := sim.Run(tr, exact, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Tighter allocation: utilization at least as good...
	if exactRes.Report.GlobalUtil+1e-9 < quantRes.Report.GlobalUtil {
		t.Errorf("unquantized global util %v below quantized %v",
			exactRes.Report.GlobalUtil, quantRes.Report.GlobalUtil)
	}
	// ...at the cost of more changes.
	if exactRes.Report.Changes <= quantRes.Report.Changes {
		t.Errorf("unquantized changes %d not above quantized %d — quantization is load-bearing",
			exactRes.Report.Changes, quantRes.Report.Changes)
	}
	// ...and within the bandwidth it still promises.
	if got, ba := exactRes.Schedule.MaxRate(), exact.Promise().BA; got > ba {
		t.Errorf("unquantized allocated %d, above BA = %d", got, ba)
	}
}

func TestUnquantizedLosesDelayGuaranteeOnSteadyTraffic(t *testing.T) {
	// On CBR traffic low(t) = ceil(r*w/(w+DO)) approaches the rate r only
	// asymptotically, so allocating exactly low(t) accumulates a
	// harmonic backlog; the paper's power-of-two overshoot is what makes
	// Claim 2's delay induction work. This test documents the failure.
	p := singleParams()
	tr := feasibleWorkloads(p, 2048)["cbr"]

	quant := MustNewSingleSession(p)
	quantRes, err := sim.Run(tr, quant, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	da := quant.Promise().DA
	if quantRes.Delay.Max > da {
		t.Fatalf("quantized delay %d broke its own guarantee %d", quantRes.Delay.Max, da)
	}
	exact := MustNewUnquantizedSingle(p)
	exactRes, err := sim.Run(tr, exact, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exactRes.Delay.Max <= da {
		t.Errorf("unquantized delay %d unexpectedly within DA = %d — the ablation should show the guarantee is lost",
			exactRes.Delay.Max, da)
	}
}

func TestUnquantizedAllocationsNotPowersOfTwo(t *testing.T) {
	p := singleParams()
	tr := feasibleWorkloads(p, 400)["video"]
	s := MustNewUnquantizedSingle(p)
	res, err := sim.Run(tr, s, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nonPow2 := 0
	for _, seg := range res.Schedule.Segments() {
		if seg.Rate != 0 && !bw.IsPow2(seg.Rate) {
			nonPow2++
		}
	}
	if nonPow2 == 0 {
		t.Error("unquantized variant never allocated a non-power-of-two rate")
	}
}

func TestVariantsUtilizationStaysMeasured(t *testing.T) {
	// Both variants still produce sane flexible utilization (> 0) on
	// bursty traffic, measured over the standard algorithm's window; the
	// paper only proves the local-window guarantee for the standard
	// algorithm, so neither variant promises it.
	p := singleParams()
	tr := feasibleWorkloads(p, 800)["onoff"]
	window := MustNewSingleSession(p).Promise().UW
	for _, tc := range []struct {
		name  string
		alloc sim.Allocator
	}{
		{"global-util", MustNewGlobalUtilSingle(p)},
		{"unquantized", MustNewUnquantizedSingle(p)},
	} {
		res, err := sim.Run(tr, tc.alloc, sim.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		util := metrics.FlexibleUtilizationMin(tr, res.Schedule, 1, window)
		if util <= 0 {
			t.Errorf("%s: flexible utilization %v", tc.name, util)
		}
	}
}
