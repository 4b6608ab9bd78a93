package traffic

import (
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/trace"
)

func TestCBR(t *testing.T) {
	tr := CBR{Rate: 7}.Generate(10)
	if tr.Len() != 10 || tr.Total() != 70 || tr.Peak() != 7 {
		t.Errorf("CBR: len=%d total=%d peak=%d", tr.Len(), tr.Total(), tr.Peak())
	}
}

func TestOnOffDeterministicAndBursty(t *testing.T) {
	g := OnOff{Seed: 1, PeakRate: 10, MeanOn: 5, MeanOff: 5}
	a := g.Generate(500)
	b := g.Generate(500)
	if a.Total() != b.Total() {
		t.Error("OnOff not deterministic for equal seeds")
	}
	if a.Total() == 0 {
		t.Error("OnOff produced no traffic")
	}
	if a.Total() == 10*500 {
		t.Error("OnOff never turned off")
	}
	// Every tick is either 0 or PeakRate.
	for i := bw.Tick(0); i < a.Len(); i++ {
		if v := a.At(i); v != 0 && v != 10 {
			t.Fatalf("tick %d = %d, want 0 or 10", i, v)
		}
	}
}

func TestSpike(t *testing.T) {
	g := Spike{Seed: 3, Base: 2, SpikeBits: 100, SpikeProb: 0.05}
	tr := g.Generate(2000)
	spikes := 0
	for i := bw.Tick(0); i < tr.Len(); i++ {
		switch tr.At(i) {
		case 2:
		case 102:
			spikes++
		default:
			t.Fatalf("tick %d = %d, want 2 or 102", i, tr.At(i))
		}
	}
	if spikes < 50 || spikes > 150 {
		t.Errorf("spike count = %d, want ~100", spikes)
	}
}

func TestParetoBurst(t *testing.T) {
	g := ParetoBurst{Seed: 5, Alpha: 1.5, MinBurst: 50, MeanGap: 20, SpreadTicks: 4}
	tr := g.Generate(4000)
	if tr.Total() == 0 {
		t.Fatal("no bursts generated")
	}
	// Heavy tail: the peak tick should far exceed the mean tick.
	if tr.Peak() < 4*tr.MeanCeil() {
		t.Errorf("peak %d vs mean %d: expected heavy-tailed bursts", tr.Peak(), tr.MeanCeil())
	}
}

func TestVBRVideo(t *testing.T) {
	g := VBRVideo{
		Seed: 7, FrameInterval: 3,
		IBits: 1000, PBits: 400, BBits: 100,
		Jitter: 0.1, SceneChangeProb: 0.02,
	}
	tr := g.Generate(600)
	// Frames only on multiples of the interval.
	for i := bw.Tick(0); i < tr.Len(); i++ {
		if i%3 != 0 && tr.At(i) != 0 {
			t.Fatalf("tick %d has %d bits between frames", i, tr.At(i))
		}
	}
	if tr.Total() == 0 {
		t.Fatal("no video traffic")
	}
	// I frames should dominate B frames on average.
	if tr.Peak() < 500 {
		t.Errorf("peak %d too small for I frames", tr.Peak())
	}
}

func TestComposite(t *testing.T) {
	g := Composite{Parts: []Generator{CBR{Rate: 1}, CBR{Rate: 2}}}
	tr := g.Generate(5)
	if tr.Total() != 15 {
		t.Errorf("Composite total = %d, want 15", tr.Total())
	}
}

func TestSquareWave(t *testing.T) {
	g := SquareWave{LowRate: 1, HighRate: 9, HalfPeriod: 2}
	tr := g.Generate(8)
	want := []bw.Bits{1, 1, 9, 9, 1, 1, 9, 9}
	for i, w := range want {
		if got := tr.At(bw.Tick(i)); got != w {
			t.Errorf("tick %d = %d, want %d", i, got, w)
		}
	}
}

func TestDoublingDemand(t *testing.T) {
	g := DoublingDemand{StartRate: 1, MaxRate: 8, PhaseLen: 2}
	tr := g.Generate(10)
	want := []bw.Bits{1, 1, 2, 2, 4, 4, 8, 8, 1, 1}
	for i, w := range want {
		if got := tr.At(bw.Tick(i)); got != w {
			t.Errorf("tick %d = %d, want %d", i, got, w)
		}
	}
}

func TestClampMakesFeasible(t *testing.T) {
	// A wildly infeasible stream becomes serveable after clamping.
	raw := GeneratorFunc(func(n bw.Tick) *trace.Trace {
		arrivals := make([]bw.Bits, n)
		for i := range arrivals {
			arrivals[i] = 1000
		}
		return trace.MustNew(arrivals)
	})
	tr := ClampTrace(raw.Generate(50), 8, 4)
	if !tr.ServeableWith(8, 4) {
		t.Fatal("clamped trace not serveable with (8, 4)")
	}
	if tr.Total() == 0 {
		t.Fatal("clamp dropped everything")
	}
}

func TestClampPreservesFeasibleTraffic(t *testing.T) {
	src := OnOff{Seed: 11, PeakRate: 4, MeanOn: 3, MeanOff: 9}
	raw := src.Generate(300)
	if !raw.ServeableWith(8, 6) {
		t.Skip("source unexpectedly infeasible; adjust test parameters")
	}
	clamped := ClampTrace(raw, 8, 6)
	if clamped.Total() != raw.Total() {
		t.Errorf("clamp altered feasible traffic: %d -> %d", raw.Total(), clamped.Total())
	}
}

func TestClampPropertyAgainstBursty(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		src := ParetoBurst{Seed: seed, Alpha: 1.3, MinBurst: 100, MeanGap: 10, SpreadTicks: 1}
		tr := ClampTrace(src.Generate(400), 16, 8)
		if !tr.ServeableWith(16, 8) {
			t.Fatalf("seed %d: clamped trace infeasible", seed)
		}
	}
}

func TestPlantedValidation(t *testing.T) {
	bad := []PlantedParams{
		{K: 0, BO: 10, DO: 1, Phases: 1, PhaseLen: 1, Fill: 1},
		{K: 4, BO: 4, DO: 1, Phases: 1, PhaseLen: 1, Fill: 1},
		{K: 2, BO: 10, DO: 1, Phases: 0, PhaseLen: 1, Fill: 1},
		{K: 2, BO: 10, DO: 1, Phases: 1, PhaseLen: 1, Fill: 0},
		{K: 2, BO: 10, DO: 1, Phases: 1, PhaseLen: 1, Fill: 1.5},
	}
	for i, p := range bad {
		if _, err := NewPlanted(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestPlantedInvariants(t *testing.T) {
	p := PlantedParams{
		Seed: 42, K: 4, BO: 64, DO: 4,
		Phases: 10, PhaseLen: 32, ShufflesPerPhase: 2, Fill: 0.75,
	}
	pl, err := NewPlanted(p)
	if err != nil {
		t.Fatalf("NewPlanted: %v", err)
	}
	if pl.Multi.K() != 4 || pl.Multi.Len() != 320 {
		t.Fatalf("multi shape: k=%d len=%d", pl.Multi.K(), pl.Multi.Len())
	}
	// The planted schedule serves each session's arrivals with delay 0:
	// arrivals at tick t never exceed the session's planted rate.
	for i := 0; i < p.K; i++ {
		tr := pl.Multi.Session(i)
		sched := pl.OfflineSessions[i]
		for tick := bw.Tick(0); tick < tr.Len(); tick++ {
			if tr.At(tick) > sched.At(tick) {
				t.Fatalf("session %d tick %d: arrivals %d > planted rate %d",
					i, tick, tr.At(tick), sched.At(tick))
			}
		}
	}
	// The total planted allocation never exceeds BO.
	if peak := pl.OfflineTotal.MaxRate(); peak > p.BO {
		t.Errorf("planted total peak %d > BO %d", peak, p.BO)
	}
	// And it always equals exactly BO without global levels.
	for tick := bw.Tick(0); tick < pl.OfflineTotal.Len(); tick++ {
		if got := pl.OfflineTotal.At(tick); got != p.BO {
			t.Fatalf("tick %d: total rate %d, want %d", tick, got, p.BO)
		}
	}
	if pl.GlobalChanges() != 1 {
		t.Errorf("GlobalChanges = %d, want 1 (constant total)", pl.GlobalChanges())
	}
	if pl.LocalChanges() < p.K {
		t.Errorf("LocalChanges = %d, want >= K", pl.LocalChanges())
	}
}

func TestPlantedGlobalLevels(t *testing.T) {
	p := PlantedParams{
		Seed: 7, K: 3, BO: 48, DO: 2,
		Phases: 20, PhaseLen: 16, ShufflesPerPhase: 1, Fill: 0.9,
		GlobalLevels: true,
	}
	pl, err := NewPlanted(p)
	if err != nil {
		t.Fatalf("NewPlanted: %v", err)
	}
	if pl.GlobalChanges() < 2 {
		t.Errorf("GlobalChanges = %d, want >= 2 with GlobalLevels", pl.GlobalChanges())
	}
	if peak := pl.OfflineTotal.MaxRate(); peak > p.BO {
		t.Errorf("total peak %d > BO %d", peak, p.BO)
	}
}

func TestPlantedDeterministic(t *testing.T) {
	p := PlantedParams{Seed: 9, K: 2, BO: 16, DO: 2, Phases: 4, PhaseLen: 8, ShufflesPerPhase: 1, Fill: 0.5}
	a, err := NewPlanted(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlanted(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Multi.Aggregate().Total() != b.Multi.Aggregate().Total() {
		t.Error("planted workload not deterministic")
	}
}
