package harness

import (
	"fmt"

	"dynbw/internal/baseline"
	"dynbw/internal/core"
	"dynbw/internal/sim"
)

// Heuristics is experiment E13: the changes/delay/utilization trade-off
// table across the allocation policies — the static and per-packet
// extremes of Figure 2, the limited-renegotiation heuristics of the
// experimental literature the paper builds on ([GKT95] RCBR, [ACHM96]),
// and the paper's single-session algorithm.
func Heuristics() (*Table, error) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	t := &Table{
		ID:    "E13",
		Title: "Allocation policies: changes vs delay vs utilization",
		Note: "Expected: the paper's algorithms sit on the Pareto frontier — " +
			"orders of magnitude fewer changes than per-tick at comparable delay, " +
			"bounded delay unlike static-mean, and far better utilization than " +
			"static-peak.",
		Headers: []string{
			"workload", "policy", "changes", "max_delay", "p99_delay", "global_util", "max_rate",
		},
	}
	for _, w := range workloadMatrix(p, 2048) {
		policies := []struct {
			name  string
			alloc sim.Allocator
		}{
			{name: "static-peak", alloc: baseline.Static{R: w.Trace.Peak()}},
			{name: "static-mean", alloc: baseline.Static{R: w.Trace.MeanCeil()}},
			{name: "per-tick", alloc: &baseline.PerTick{D: p.DO}},
			{name: "periodic-W", alloc: &baseline.Periodic{Period: p.W, D: p.DO}},
			{name: "ewma-rcbr", alloc: mustEWMA(p)},
			{name: "paper-single", alloc: core.MustNewSingleSession(p)},
		}
		for _, pol := range policies {
			res, err := sim.Run(w.Trace, pol.alloc, sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("E13 %s/%s: %w", w.Name, pol.name, err)
			}
			t.AddRow(w.Name, pol.name,
				itoa(res.Report.Changes),
				itoa(res.Delay.Max), itoa(res.Delay.P99),
				f3(res.Report.GlobalUtil),
				itoa(res.Report.MaxRate))
		}
	}
	return t, nil
}

func mustEWMA(p core.SingleParams) sim.Allocator {
	e, err := baseline.NewEWMA(0.15, 2, 1.5, p.DO)
	if err != nil {
		panic(err)
	}
	return e
}

// All returns the full experiment registry in DESIGN.md §4 order.
func All() []Experiment {
	return []Experiment{
		{ID: "FIG1", Title: "Bandwidth demand example", Reproduces: "Figure 1", Run: Fig1},
		{ID: "FIG2", Title: "Allocation strategies", Reproduces: "Figure 2", Run: Fig2},
		{ID: "E3", Title: "Single-session ratio vs B_A", Reproduces: "Theorem 6", Run: Thm6SweepB},
		{ID: "E4", Title: "Per-stage accounting", Reproduces: "Theorem 6 / Lemma 1", Run: Thm6Stages},
		{ID: "E5", Title: "Figure 3 vs 1/U_O", Reproduces: "Theorem 7's shape", Run: Thm7SweepU},
		{ID: "E6", Title: "Delay & utilization guarantees", Reproduces: "Lemmas 3, 5", Run: Guarantees},
		{ID: "E7", Title: "Phased multi-session vs k", Reproduces: "Theorem 14", Run: Thm14SweepK},
		{ID: "E8", Title: "Continuous multi-session vs k", Reproduces: "Theorem 17", Run: Thm17SweepK},
		{ID: "E9", Title: "Phased vs continuous ablation", Reproduces: "Sections 3.1-3.2", Run: PhasedVsContinuous},
		{ID: "E10", Title: "Combined algorithm", Reproduces: "Section 4", Run: Combined},
		{ID: "E11", Title: "Necessity of slack", Reproduces: "Section 1.1 remark", Run: NoSlackAdversary},
		{ID: "E12", Title: "Doubling ramp tightness", Reproduces: "Theorem 6 tightness", Run: LogBLowerBound},
		{ID: "E13", Title: "Heuristic comparison", Reproduces: "[GKT95]/[ACHM96] motivation", Run: Heuristics},
		{ID: "E14", Title: "Local vs global utilization", Reproduces: "Section 2 (end)", Run: GlobalVsLocalUtil},
		{ID: "E15", Title: "Quantization ablation", Reproduces: "DESIGN.md ablation #1", Run: QuantizationAblation},
		{ID: "E16", Title: "Adaptive slack-busting adversary", Reproduces: "Section 1.1 remark (adaptive)", Run: AdaptiveAdversary},
		{ID: "E17", Title: "Buffer sizing (Claim 2)", Reproduces: "Section 1 buffer assumption / Claim 2", Run: BufferSizing},
		{ID: "E18", Title: "Workload characterization", Reproduces: "Section 1 traffic premise", Run: WorkloadCharacterization},
		{ID: "E19", Title: "Utilization window W sweep", Reproduces: "Section 2 (window discussion)", Run: WindowSweep},
		{ID: "E20", Title: "Delay-slack trade-off", Reproduces: "Section 1.1 Remark", Run: SlackSweep},
		{ID: "E23", Title: "Routing-tier blocking", Reproduces: "ROADMAP item 4 (balanced allocation)", Run: RoutingBlocking},
		{ID: "E24", Title: "Routing-tier balance vs k", Reproduces: "ROADMAP item 4 (power of two choices)", Run: RoutingBalance},
		{ID: "E25", Title: "Routing-tier change+reroute cost", Reproduces: "ROADMAP item 4 (b-matching cost)", Run: RoutingCost},
	}
}
