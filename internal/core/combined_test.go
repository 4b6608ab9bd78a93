package core

import (
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/sim"
	"dynbw/internal/traffic"
)

func combinedParams() CombinedParams {
	return CombinedParams{K: 4, BA: 256, DO: 8, UO: 0.5, W: 16}
}

func TestNewCombinedValidates(t *testing.T) {
	bad := []CombinedParams{
		{K: 0, BA: 64, DO: 4, UO: 0.5, W: 8},
		{K: 2, BA: 63, DO: 4, UO: 0.5, W: 8}, // BA not a power of two
		{K: 2, BA: 64, DO: 0, UO: 0.5, W: 8},
		{K: 2, BA: 64, DO: 4, UO: 0, W: 8},
		{K: 2, BA: 64, DO: 4, UO: 0.5, W: 2}, // W < DO
	}
	for i, p := range bad {
		if _, err := NewCombined(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	if _, err := NewCombined(combinedParams()); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func combinedWorkload(t *testing.T, seed uint64, p CombinedParams) *traffic.Planted {
	t.Helper()
	pl, err := traffic.NewPlanted(traffic.PlantedParams{
		Seed: seed, K: p.K, BO: p.BA / 8, DO: p.DO,
		Phases: 10, PhaseLen: 8 * p.DO, ShufflesPerPhase: 1, Fill: 0.8,
		GlobalLevels: true,
	})
	if err != nil {
		t.Fatalf("NewPlanted: %v", err)
	}
	return pl
}

func TestCombinedDelayGuarantee(t *testing.T) {
	p := combinedParams()
	pl := combinedWorkload(t, 1, p)
	alg := MustNewCombined(p)
	res, err := sim.RunMulti(pl.Multi, alg, sim.Options{})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if limit := alg.Promise().DA; res.Delay.Max > limit {
		t.Errorf("max delay %d exceeds DA = %d", res.Delay.Max, limit)
	}
}

func TestCombinedBandwidthBound(t *testing.T) {
	p := combinedParams()
	pl := combinedWorkload(t, 2, p)
	alg := MustNewCombined(p)
	res, err := sim.RunMulti(pl.Multi, alg, sim.Options{})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if limit := alg.Promise().BA; res.MaxTotalRate() > limit {
		t.Errorf("total bandwidth %d exceeds BA = %d", res.MaxTotalRate(), limit)
	}
}

func TestCombinedUtilizationGuarantee(t *testing.T) {
	p := combinedParams()
	pl := combinedWorkload(t, 3, p)
	alg := MustNewCombined(p)
	res, err := sim.RunMulti(pl.Multi, alg, sim.Options{})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	pr := alg.Promise()
	got := metrics.FlexibleUtilizationMin(pl.Multi.Aggregate(), res.Total, 1, pr.UW)
	if got < pr.UA {
		t.Errorf("flexible utilization %v below UA = %v", got, pr.UA)
	}
}

func TestCombinedCompetitiveShape(t *testing.T) {
	// Global changes should scale like log2(BA) x planted global changes,
	// local changes like O(k log BA) x planted local changes.
	p := combinedParams()
	pl := combinedWorkload(t, 4, p)
	alg := MustNewCombined(p)
	res, err := sim.RunMulti(pl.Multi, alg, sim.Options{})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	logBA := float64(bw.Log2Ceil(p.BA))
	globalRatio := float64(res.TotalChanges()) / float64(pl.GlobalChanges())
	if globalRatio > 8*logBA*float64(p.K) {
		t.Errorf("global change ratio %.1f far above O(k log BA) envelope", globalRatio)
	}
	localRatio := float64(res.SessionChanges()) / float64(pl.LocalChanges())
	if localRatio > 8*float64(p.K)*logBA {
		t.Errorf("local change ratio %.1f far above O(k log BA) = %.1f envelope",
			localRatio, float64(p.K)*logBA)
	}
	st := alg.Stats()
	if st.GlobalStages != st.GlobalResets+1 {
		t.Errorf("GlobalStages = %d, GlobalResets = %d", st.GlobalStages, st.GlobalResets)
	}
	if st.LocalStages < st.GlobalStages {
		t.Errorf("LocalStages = %d < GlobalStages = %d", st.LocalStages, st.GlobalStages)
	}
}

func TestCombinedIdle(t *testing.T) {
	p := combinedParams()
	alg := MustNewCombined(p)
	for tick := bw.Tick(0); tick < 100; tick++ {
		rates := alg.Rates(tick, make([]bw.Bits, p.K), make([]bw.Bits, p.K))
		for i, r := range rates {
			if r != 0 {
				t.Fatalf("tick %d session %d: idle rate %d", tick, i, r)
			}
		}
	}
	if alg.Stats().GlobalResets != 0 {
		t.Error("idle workload caused global resets")
	}
}

func TestCombinedContinuousGuarantees(t *testing.T) {
	p := combinedParams()
	pl := combinedWorkload(t, 5, p)
	alg := MustNewCombinedContinuous(p)
	res, err := sim.RunMulti(pl.Multi, alg, sim.Options{})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	pr := alg.Promise()
	if res.Delay.Max > pr.DA {
		t.Errorf("max delay %d exceeds DA = %d", res.Delay.Max, pr.DA)
	}
	if res.MaxTotalRate() > pr.BA {
		t.Errorf("total bandwidth %d exceeds BA = %d", res.MaxTotalRate(), pr.BA)
	}
	st := alg.Stats()
	if st.GlobalStages != st.GlobalResets+1 {
		t.Errorf("GlobalStages = %d, GlobalResets = %d", st.GlobalStages, st.GlobalResets)
	}
}

func TestCombinedContinuousUtilization(t *testing.T) {
	p := combinedParams()
	pl := combinedWorkload(t, 6, p)
	alg := MustNewCombinedContinuous(p)
	res, err := sim.RunMulti(pl.Multi, alg, sim.Options{})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	pr := alg.Promise()
	got := metrics.FlexibleUtilizationMin(pl.Multi.Aggregate(), res.Total, 1, pr.UW)
	if got < pr.UA {
		t.Errorf("flexible utilization %v below UA = %v", got, pr.UA)
	}
}

func TestCombinedVariantsComparable(t *testing.T) {
	// The two inner variants must land in the same ballpark on changes
	// and both respect the delay bound.
	p := combinedParams()
	pl := combinedWorkload(t, 7, p)
	ph := MustNewCombined(p)
	phRes, err := sim.RunMulti(pl.Multi, ph, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	co := MustNewCombinedContinuous(p)
	coRes, err := sim.RunMulti(pl.Multi, co, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if phRes.SessionChanges() == 0 || coRes.SessionChanges() == 0 {
		t.Fatal("a variant made no changes at all")
	}
	ratio := float64(coRes.SessionChanges()) / float64(phRes.SessionChanges())
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("variants diverge wildly: continuous %d vs phased %d changes",
			coRes.SessionChanges(), phRes.SessionChanges())
	}
}
