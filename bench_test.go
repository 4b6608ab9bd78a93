// Package dynbw's root benchmarks are micro-benchmarks of the building
// blocks: the per-tick cost of the paper's algorithms, the offline greedy,
// a whole simulated run, and the schedule scan. Run them with
//
//	go test -bench=. -benchmem
//
// They are for use while working on one of those layers. Performance
// claims rest on the repository benchmark (benchmarks/README.md), which
// drives a running gateway; the experiment tables are pinned by the
// results/ goldens (internal/harness's TestGoldenResults).
package dynbw

import (
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/offline"
	"dynbw/internal/sim"
	"dynbw/internal/traffic"
)

// BenchmarkSingleSessionTick measures the per-tick cost of the paper's
// single-session algorithm (tracker updates + quantization).
func BenchmarkSingleSessionTick(b *testing.B) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	g := traffic.OnOff{Seed: 1, PeakRate: 128, MeanOn: 12, MeanOff: 20}
	tr := traffic.ClampTrace(g.Generate(bw.Tick(b.N)+1), p.BA, p.DO)
	alg := core.MustNewSingleSession(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := bw.Tick(i)
		alg.Rate(t, tr.At(t), tr.At(t))
	}
}

// BenchmarkPhasedTick measures the per-tick cost of the phased
// multi-session algorithm at k = 16.
func BenchmarkPhasedTick(b *testing.B) {
	p := core.MultiParams{K: 16, BO: 256, DO: 8}
	alg := core.MustNewPhased(p)
	arrived := make([]bw.Bits, p.K)
	queued := make([]bw.Bits, p.K)
	for i := range arrived {
		arrived[i] = bw.Bits(3 + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Rates(bw.Tick(i), arrived, queued)
	}
}

// BenchmarkOfflineGreedy measures the clairvoyant comparator on a
// 4096-tick bursty trace.
func BenchmarkOfflineGreedy(b *testing.B) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	g := traffic.OnOff{Seed: 5, PeakRate: 128, MeanOn: 12, MeanOff: 20}
	tr := traffic.ClampTrace(g.Generate(4096), p.BA, p.DO)
	op := offline.Params{B: p.BA, D: p.DO, U: p.UO, W: p.W}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := offline.Greedy(tr, op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorRun measures end-to-end single-session simulation on
// the fixed 4096-tick trace: a fresh policy per run (as the sweeps
// construct them) but with the simulator storage amortized by a Runner.
func BenchmarkSimulatorRun(b *testing.B) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	g := traffic.ParetoBurst{Seed: 3, Alpha: 1.5, MinBurst: 256, MeanGap: 16, SpreadTicks: 2}
	tr := traffic.ClampTrace(g.Generate(4096), p.BA, p.DO)
	r := sim.NewRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(tr, core.MustNewSingleSession(p), sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerReuse is the Runner's steady state: simulator storage
// AND the session policy both reused via Reset. Target: zero allocations
// per run.
func BenchmarkRunnerReuse(b *testing.B) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	g := traffic.ParetoBurst{Seed: 3, Alpha: 1.5, MinBurst: 256, MeanGap: 16, SpreadTicks: 2}
	tr := traffic.ClampTrace(g.Generate(4096), p.BA, p.DO)
	r := sim.NewRunner()
	alg := core.MustNewSingleSession(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Reset()
		if _, err := r.Run(tr, alg, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleScan measures a full sequential read of a recorded
// schedule — per-tick rate plus a sliding 16-tick window integral, the
// access pattern of metrics.BuildReport and the utilization scans — via
// the amortized-O(1) cursor.
func BenchmarkScheduleScan(b *testing.B) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	g := traffic.ParetoBurst{Seed: 3, Alpha: 1.5, MinBurst: 256, MeanGap: 16, SpreadTicks: 2}
	tr := traffic.ClampTrace(g.Generate(4096), p.BA, p.DO)
	res, err := sim.Run(tr, core.MustNewSingleSession(p), sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sched := res.Schedule
	n := sched.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := sched.Cursor()
		var acc bw.Bits
		for t := bw.Tick(0); t < n; t++ {
			acc += bw.Bits(cur.At(t))
			if t >= 16 {
				acc += cur.Integral(t-16, t)
			}
		}
		if acc == 0 {
			b.Fatal("scan accumulated nothing")
		}
	}
}
