package harness

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/metrics"
	"dynbw/internal/offline"
	"dynbw/internal/sim"
)

// Thm6SweepB is experiment E3: the single-session competitive ratio as a
// function of B_A (Theorem 6). For each B_A, the online algorithm runs on
// bursty feasible traffic; its change count is compared against (a) the
// clairvoyant Greedy schedule obeying the offline constraints (an upper
// bound on OPT's changes, so ratio_greedy lower-bounds the measured
// competitive ratio) and (b) the stage count (a lower bound on OPT by
// Lemma 1, so ratio_stage upper-bounds it). The theorem predicts both
// bracketing ratios stay below log2(B_A).
func Thm6SweepB() (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Single-session competitive ratio vs B_A (Theorem 6)",
		Note: "OPT is bracketed three ways: greedy (upper bound on OPT's changes), " +
			"the Lemma 1 stage count, and the offline certificate of disjoint " +
			"rate-infeasible windows (both lower bounds). The true competitive ratio " +
			"lies in [ratio_vs_greedy, ratio_vs_certLB]. Theorem 6 bound: log2(B_A).",
		Headers: []string{
			"B_A", "log2_BA", "online_changes", "greedy_changes", "stage_LB", "cert_LB",
			"ratio_vs_greedy", "ratio_vs_certLB", "max_delay", "bound_2DO",
		},
	}
	bas := []bw.Rate{16, 64, 256, 1024, 4096}
	err := ParRows(t, len(bas), func(i int) ([][]string, error) {
		ba := bas[i]
		p := core.SingleParams{BA: ba, DO: 8, UO: 0.5, W: 16}
		tr := feasibleBursty(300, p, 2048)
		alg := core.MustNewSingleSession(p)
		res, err := sim.Run(tr, alg, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("E3 BA=%d: %w", ba, err)
		}
		greedy, err := offline.Greedy(tr, offline.Params{B: p.BA, D: p.DO, U: p.UO, W: p.W})
		if err != nil {
			return nil, fmt.Errorf("E3 BA=%d greedy: %w", ba, err)
		}
		stageLB := alg.Stats().Resets
		if stageLB == 0 {
			stageLB = 1
		}
		certLB, err := offline.ChangeLowerBound(tr, offline.Params{B: p.BA, D: p.DO, U: p.UO, W: p.W})
		if err != nil {
			return nil, fmt.Errorf("E3 BA=%d certLB: %w", ba, err)
		}
		if certLB == 0 {
			certLB = 1
		}
		return [][]string{{
			itoa(ba), itoa(int64(p.LogBA())),
			itoa(res.Report.Changes), itoa(greedy.Changes()), itoa(stageLB), itoa(int64(certLB)),
			f2(ratio(res.Report.Changes, greedy.Changes())),
			f2(ratio(res.Report.Changes, certLB)),
			itoa(res.Delay.Max), itoa(alg.Promise().DA),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Thm6Stages is experiment E4: per-stage accounting. Theorem 6's proof
// bounds the online's changes per stage by log2(B_A) (monotone powers of
// two) while any offline algorithm makes at least one change per
// completed stage.
func Thm6Stages() (*Table, error) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	t := &Table{
		ID:    "E4",
		Title: "Per-stage change accounting (Theorem 6 / Lemma 1)",
		Note: "avg/max changes per stage must stay within log2(B_A)+const; " +
			"the offline makes >= 1 change per completed stage.",
		Headers: []string{
			"workload", "stages", "resets", "changes", "avg_changes_per_stage",
			"bound_log2BA", "infeasible_ticks",
		},
	}
	for _, w := range workloadMatrix(p, 2048) {
		alg := core.MustNewSingleSession(p)
		res, err := sim.Run(w.Trace, alg, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("E4 %s: %w", w.Name, err)
		}
		st := alg.Stats()
		t.AddRow(w.Name,
			itoa(int64(st.Stages)), itoa(int64(st.Resets)),
			itoa(res.Report.Changes),
			f2(float64(res.Report.Changes)/float64(st.Stages)),
			itoa(int64(p.LogBA())),
			itoa(int64(st.InfeasibleTicks)))
	}
	return t, nil
}

// Thm7SweepU is experiment E5: the Figure 3 algorithm's change count as a
// function of 1/U_O, measured against the shape Theorem 7 claims for its
// modified algorithm, with B_A fixed and large so that the log2(B_A) term
// cannot masquerade as the observed growth. The workload oscillates
// without going idle, so stages end through the utilization bound.
func Thm7SweepU() (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Figure 3 algorithm: changes vs 1/U_O (Theorem 7's shape)",
		Note: "B_A = 2^16 fixed. Theorem 7's shape: changes per stage grow like " +
			"log2(1/U_O), not log2(B_A) = 16. Measured on the Figure 3 algorithm: " +
			"Theorem 7's modified algorithm is in the paper's unpublished full " +
			"version and is not reproduced; see DESIGN.md.",
		Headers: []string{
			"U_O", "log2_inv_UO", "changes", "stages", "per_stage", "greedy_changes", "ratio",
		},
	}
	const ba = bw.Rate(1 << 16)
	uos := []float64{1.0 / 2, 1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128}
	err := ParRows(t, len(uos), func(i int) ([][]string, error) {
		uo := uos[i]
		p := core.SingleParams{BA: ba, DO: 8, UO: uo, W: 16}
		tr := staircase(2, 32768, p.W, 8192)

		alg := core.MustNewSingleSession(p)
		res, err := sim.Run(tr, alg, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("E5 UO=%v: %w", uo, err)
		}
		greedy, err := offline.Greedy(tr, offline.Params{B: p.BA, D: p.DO, U: p.UO, W: p.W})
		if err != nil {
			return nil, fmt.Errorf("E5 UO=%v greedy: %w", uo, err)
		}
		stages := alg.Stats().Stages
		return [][]string{{
			f3(uo), itoa(int64(bw.Log2Ceil(int64(1 / uo)))),
			itoa(res.Report.Changes), itoa(int64(stages)),
			f2(float64(res.Report.Changes) / float64(stages)),
			itoa(greedy.Changes()),
			f2(ratio(res.Report.Changes, greedy.Changes())),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Guarantees is experiment E6: the delay (Lemma 3) and utilization
// (Lemma 5) guarantees of the Figure 3 algorithm across the workload
// matrix.
func Guarantees() (*Table, error) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	t := &Table{
		ID:    "E6",
		Title: "Delay and utilization guarantees (Lemmas 3 and 5)",
		Note: "Guarantees: max_delay <= 2*D_O = 16 and flexible-window utilization " +
			">= U_O/3 = 0.167 (window sizes up to W+5*D_O).",
		Headers: []string{
			"workload", "algorithm", "max_delay", "bound", "flex_util", "util_bound", "global_util",
		},
	}
	for _, w := range workloadMatrix(p, 2048) {
		alg := core.MustNewSingleSession(p)
		res, err := sim.Run(w.Trace, alg, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("E6 %s: %w", w.Name, err)
		}
		pr := alg.Promise()
		t.AddRow(w.Name, "single",
			itoa(res.Delay.Max), itoa(pr.DA),
			f3(metrics.FlexibleUtilizationMin(w.Trace, res.Schedule, 1, pr.UW)), f3(pr.UA),
			f3(res.Report.GlobalUtil))
	}
	return t, nil
}

// ratio guards against a zero denominator.
func ratio(num, den int) float64 {
	if den == 0 {
		den = 1
	}
	return float64(num) / float64(den)
}
