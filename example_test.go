package dynbw

import (
	"fmt"

	"dynbw/internal/baseline"
	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/sim"
	"dynbw/internal/traffic"
)

// Example walks the paper's three settings on the public surface: the
// trade-off between bandwidth changes, delay and utilization.
//
// A single VBR video session (Section 2, the paper's motivating workload)
// is served by the two static extremes of Figure 2, by renegotiation
// every tick, and by the online algorithm of Figure 3, which keeps delay
// within 2*D_O at a fraction of per-tick's changes.
//
// An ISP's k customers share a pool (Section 3): a planted workload whose
// clairvoyant provider's change count is known, served by the phased
// (Theorem 14) and continuous (Theorem 17) algorithms.
//
// A provider billed per bit allocated and per change (Section 4) prices a
// static split of the channel against the combined algorithm.
func Example() {
	single := core.SingleParams{BA: 1024, DO: 6, UO: 0.5, W: 12}
	video := traffic.VBRVideo{Seed: 7, FrameInterval: 2, IBits: 480, PBits: 180, BBits: 60, Jitter: 0.25, SceneChangeProb: 0.03}
	demand := traffic.ClampTrace(video.Generate(4096), single.BA, single.DO)
	for _, p := range []struct {
		name  string
		alloc sim.Allocator
	}{
		{"static peak", baseline.Static{R: demand.Peak()}},
		{"static mean", baseline.Static{R: demand.MeanCeil()}},
		{"per tick", &baseline.PerTick{D: single.DO}},
		{"online (Fig. 3)", core.MustNewSingleSession(single)},
	} {
		res, err := sim.Run(demand, p.alloc, sim.Options{})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("video %-15s changes %4d  max delay %3d  p99 %3d  util %3.0f%%\n",
			p.name, res.Report.Changes, res.Delay.Max, res.Delay.P99, 100*res.Report.GlobalUtil)
	}

	multi := core.MultiParams{K: 8, BO: 96, DO: 8}
	pl, err := traffic.NewPlanted(traffic.PlantedParams{
		Seed: 99, K: multi.K, BO: multi.BO, DO: multi.DO,
		Phases: 20, PhaseLen: 64, ShufflesPerPhase: 3, Fill: 0.8,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, p := range []struct {
		name  string
		alloc sim.MultiAllocator
	}{
		{"phased", core.MustNewPhased(multi)},
		{"continuous", core.MustNewContinuous(multi)},
	} {
		res, err := sim.RunMulti(pl.Multi, p.alloc, sim.Options{})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("isp   %-15s changes %4d (offline %d)  max delay %d (bound %d)  peak %d\n",
			p.name, res.SessionChanges(), pl.LocalChanges(), res.Delay.Max, multi.DA(), res.MaxTotalRate())
	}

	combined := core.CombinedParams{K: 6, BA: 512, DO: 8, UO: 0.5, W: 16}
	billed, err := traffic.NewPlanted(traffic.PlantedParams{
		Seed: 31, K: combined.K, BO: combined.BA / 8, DO: combined.DO,
		Phases: 24, PhaseLen: 64, ShufflesPerPhase: 2, Fill: 0.8, GlobalLevels: true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	split := make([]sim.Allocator, combined.K)
	for i := range split {
		split[i] = baseline.Static{R: combined.BA / bw.Rate(combined.K)}
	}
	for _, p := range []struct {
		name  string
		alloc sim.MultiAllocator
	}{
		{"static split", &sim.Separate{Allocs: split}},
		{"combined", core.MustNewCombined(combined)},
	} {
		res, err := sim.RunMulti(billed.Multi, p.alloc, sim.Options{})
		if err != nil {
			fmt.Println(err)
			return
		}
		bill := 0.001*float64(res.Report.TotalAllocated) + 2*float64(res.SessionChanges())
		fmt.Printf("bill  %-15s allocated %6d  changes %3d  max delay %2d  bill %.2f\n",
			p.name, res.Report.TotalAllocated, res.SessionChanges(), res.Delay.Max, bill)
	}
	// Output:
	// video static peak     changes    1  max delay   0  p99   0  util   5%
	// video static mean     changes    1  max delay 140  p99 130  util  98%
	// video per tick        changes 1274  max delay   6  p99   6  util 100%
	// video online (Fig. 3) changes  440  max delay   8  p99   6  util  66%
	// isp   phased          changes   37 (offline 84)  max delay 9 (bound 16)  peak 232
	// isp   continuous      changes   50 (offline 84)  max delay 6 (bound 16)  peak 229
	// bill  static split    allocated 783360  changes   6  max delay  0  bill 795.36
	// bill  combined        allocated 122334  changes 106  max delay 12  bill 334.33
}
