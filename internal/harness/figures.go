package harness

import (
	"dynbw/internal/baseline"
	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/sim"
)

// Fig1 regenerates the paper's Figure 1 — "an example of a stream of bits
// requested by a session" — as a data series from the composite bursty
// generator, bucketed for readability.
func Fig1() (*Table, error) {
	const (
		n      = bw.Tick(512)
		bucket = bw.Tick(8)
	)
	tr := burstyDemand(100, 256, n)
	t := &Table{
		ID:    "FIG1",
		Title: "Bandwidth demand example (paper Figure 1)",
		Note: "Synthetic composite of on/off bursts, Pareto bursts and VBR video; " +
			"demand is bucketed into 8-tick means. Peak/mean ratio quantifies burstiness.",
		Headers: []string{"tick_bucket", "mean_demand_bits_per_tick", "peak_in_bucket"},
	}
	for start := bw.Tick(0); start < n; start += bucket {
		sum := tr.Window(start, start+bucket)
		var peak bw.Bits
		for u := start; u < start+bucket; u++ {
			if v := tr.At(u); v > peak {
				peak = v
			}
		}
		t.AddRow(itoa(start), itoa(sum/bucket), itoa(peak))
	}
	return t, nil
}

// Fig2 regenerates the paper's Figure 2: the same demand stream served by
// (a) a static peak allocation, (b) a static mean allocation, (c)
// per-tick dynamic allocation, and (d) the paper's online algorithm with
// few changes — quantifying the latency/utilization/changes triangle the
// figure illustrates.
func Fig2() (*Table, error) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	tr := feasibleBursty(200, p, 1024)

	type strategy struct {
		name  string
		alloc sim.Allocator
	}
	strategies := []strategy{
		{name: "(a) static peak", alloc: baseline.Static{R: tr.Peak()}},
		{name: "(b) static mean", alloc: baseline.Static{R: tr.MeanCeil()}},
		{name: "(c) per-tick dynamic", alloc: &baseline.PerTick{D: p.DO}},
		{name: "(d) online (paper)", alloc: core.MustNewSingleSession(p)},
	}
	t := &Table{
		ID:    "FIG2",
		Title: "Allocation strategies on one bursty stream (paper Figure 2)",
		Note: "Expected shape: (a) minimal delay, poor utilization, 1 change; " +
			"(b) good utilization, long delay, 1 change; (c) small delay and high " +
			"utilization but changes every tick; (d) bounded delay and utilization " +
			"with few changes.",
		Headers: []string{"strategy", "changes", "max_delay", "p99_delay", "global_util", "max_rate"},
	}
	for _, s := range strategies {
		res, err := sim.Run(tr, s.alloc, sim.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(s.name,
			itoa(res.Report.Changes),
			itoa(res.Delay.Max),
			itoa(res.Delay.P99),
			f3(res.Report.GlobalUtil),
			itoa(res.Report.MaxRate))
	}
	return t, nil
}
