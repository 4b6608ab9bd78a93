package core

import (
	"slices"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/rng"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
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

// TestCombinedClaim8 runs E10's planted workloads, twenty seeds of each k,
// through both inner algorithms. Claim 8 (a session whose regular queue
// drains within D_O at a phase boundary holds no overflow bits) must
// hold at every phase boundary of every local stage, and every bit must
// be delivered within the promise. A local stage start that dropped the
// overflow allocations while their queues still held bits broke it in
// every phased run.
func TestCombinedClaim8(t *testing.T) {
	var runs, violations int
	var maxDelay bw.Tick
	for _, k := range []int{2, 4, 8} {
		p := CombinedParams{K: k, BA: 256, DO: 8, UO: 0.5, W: 16}
		for s := 0; s < 20; s++ {
			seed := uint64(3000 + k + 100*s)
			pl, err := traffic.NewPlanted(traffic.PlantedParams{
				Seed: seed, K: k, BO: p.BA / 8, DO: p.DO,
				Phases: 24, PhaseLen: 8 * p.DO, ShufflesPerPhase: 3, Fill: 0.8,
				GlobalLevels: true,
			})
			if err != nil {
				t.Fatalf("NewPlanted: %v", err)
			}
			for _, alg := range []*Combined{MustNewCombined(p), MustNewCombinedContinuous(p)} {
				res, err := sim.RunMulti(pl.Multi, alg, sim.Options{})
				if err != nil {
					t.Fatalf("k=%d seed %d: RunMulti: %v", k, seed, err)
				}
				runs++
				if v := alg.Stats().OverflowViolations; v != 0 {
					t.Errorf("k=%d seed %d: Claim 8 broken %d times", k, seed, v)
					violations += v
				}
				if limit := alg.Promise().DA; res.Delay.Max > limit {
					t.Errorf("k=%d seed %d: max delay %d exceeds DA = %d", k, seed, res.Delay.Max, limit)
				}
				maxDelay = max(maxDelay, res.Delay.Max)
			}
		}
	}
	t.Logf("%d runs: %d Claim 8 violations, max delay %d", runs, violations, maxDelay)
}

// TestCombinedResetTickArrivalsDrain: the bits that arrive on a GLOBAL
// RESET tick were observed by the stage that ends there, so they go to
// the global overflow channel with the flushed queues. A trace that falls
// quiet right after the reset must still drain; had they joined the new
// stage's queues, they would wait for an estimate that no arrival ever
// raises.
func TestCombinedResetTickArrivalsDrain(t *testing.T) {
	p := combinedParams()
	// A heavy stretch, then a trickle of one bit a tick into session 0:
	// after W ticks of it the utilization bound falls below the delay
	// bound, and the global stage ends on a tick with an arrival.
	const heavy, trickle = 48, 40
	src := rng.New(11)
	arrivals := make([][]bw.Bits, p.K)
	for i := range arrivals {
		arrivals[i] = make([]bw.Bits, heavy+trickle)
		for tick := range heavy {
			arrivals[i][tick] = 4 + src.Int64n(8)
		}
	}
	for tick := heavy; tick < heavy+trickle; tick++ {
		arrivals[0][tick] = 1
	}
	multi := func(end int) *trace.Multi {
		sessions := make([]*trace.Trace, p.K)
		for i := range sessions {
			sessions[i] = trace.MustNew(arrivals[i][:end])
		}
		return trace.MustNewMulti(sessions)
	}
	for _, build := range []func(CombinedParams) *Combined{MustNewCombined, MustNewCombinedContinuous} {
		// Find the first reset of the trickle, then end the trace there.
		alg, log := build(p), &eventLog{}
		alg.SetObserver(log)
		if _, err := sim.RunMulti(multi(heavy+trickle), alg, sim.Options{}); err != nil {
			t.Fatalf("full trace: %v", err)
		}
		reset := bw.Tick(-1)
		for _, e := range log.events {
			if e.Rule == "global-reset" && e.Tick >= heavy {
				reset = e.Tick
				break
			}
		}
		if reset < 0 || reset >= heavy+trickle {
			t.Fatalf("no global reset during the trickle (stats %+v)", alg.Stats())
		}
		alg, log = build(p), &eventLog{}
		alg.SetObserver(log)
		res, err := sim.RunMulti(multi(int(reset)+1), alg, sim.Options{})
		if err != nil {
			t.Fatalf("trace ending on the reset at tick %d: %v", reset, err)
		}
		if limit := alg.Promise().DA; res.Delay.Max > limit {
			t.Errorf("max delay %d exceeds DA = %d", res.Delay.Max, limit)
		}
	}
}

// TestCombinedMatchesInnerAfterLastGrow is the composition's differential
// test: Combined is a Phased or Continuous re-staged with B_O = Bon. From
// a tick where Combined is at rest (no bits queued anywhere, no rate
// above zero) and its estimate grows for the last time, its rates must
// be those of a bare inner algorithm with B_O = Bon started there and fed
// the same arrivals, through the inner algorithm's own stage ends.
func TestCombinedMatchesInnerAfterLastGrow(t *testing.T) {
	const k = 8
	p := CombinedParams{K: k, BA: 1024, DO: 8, UO: 0.5, W: 16}
	// Random traffic and a silence that ends the global stage (at tick
	// 104) with every queue drained. From tick start, before the new
	// stage's first W ticks are over, a burst into every session sets
	// the estimate for good, and a load whose hot session rotates makes
	// the inner algorithm raise one session after another until its own
	// stage ends.
	const before, silence, after = 96, 18, 480
	start := bw.Tick(before + silence)
	src := rng.New(5)
	arrivals := make([][]bw.Bits, start+after)
	for tick := range arrivals {
		arrivals[tick] = make([]bw.Bits, k)
		switch t := bw.Tick(tick); {
		case t < before:
			for i := range k {
				arrivals[tick][i] = src.Int64n(12)
			}
		case t == start:
			for i := range k {
				arrivals[tick][i] = 40
			}
		case t > start:
			hot := int(t-start) / 48 % k
			for i := range k {
				arrivals[tick][i] = src.Int64n(5)
			}
			arrivals[tick][hot] = 16 + src.Int64n(9)
		}
	}
	for _, tc := range []struct {
		name     string
		combined func(CombinedParams) *Combined
		bare     func(MultiParams) sim.MultiAllocator
	}{
		{"phased", MustNewCombined, func(m MultiParams) sim.MultiAllocator { return MustNewPhased(m) }},
		{"continuous", MustNewCombinedContinuous, func(m MultiParams) sim.MultiAllocator { return MustNewContinuous(m) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, log := tc.combined(p), &eventLog{}
			c.SetObserver(log)
			var bare sim.MultiAllocator
			for tick, arrived := range arrivals {
				now := bw.Tick(tick)
				got := c.Rates(now, arrived, nil)
				if now == start-1 {
					for i, r := range got {
						if r != 0 {
							t.Fatalf("tick %d: session %d holds rate %d; Combined is not at rest before the burst", now, i, r)
						}
					}
				}
				if now < start {
					continue
				}
				if now == start {
					e := log.events[len(log.events)-1]
					if e.Rule != "bon-grow" || e.Tick != start {
						t.Fatalf("tick %d: last event %+v, want the estimate growing", now, e)
					}
					bare = tc.bare(MultiParams{K: k, BO: e.NewRate, DO: p.DO})
				}
				if want := bare.Rates(now-start, arrived, nil); !slices.Equal(got, want) {
					t.Fatalf("tick %d: Combined's rates %v, the bare inner algorithm's %v", now, got, want)
				}
			}
			stageEnds := 0
			for _, e := range log.events {
				if e.Tick <= start {
					continue
				}
				switch e.Rule {
				case "bon-grow", "global-reset":
					t.Fatalf("a %s event at tick %d: the estimate did not settle at tick %d", e.Rule, e.Tick, start)
				case "stage-reset":
					stageEnds++
				}
			}
			t.Logf("%d inner stage ends after tick %d", stageEnds, start)
			if stageEnds == 0 {
				t.Errorf("the inner algorithm's stage never ended after tick %d; the test checks too little", start)
			}
		})
	}
}
