package harness

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/metrics"
	"dynbw/internal/sim"
	"dynbw/internal/traffic"
)

// plantedFor builds the standard planted multi-session workload for k
// sessions, with the offline change counts known by construction.
func plantedFor(seed uint64, k int, bo bw.Rate, do bw.Tick, global bool) (*traffic.Planted, error) {
	return traffic.NewPlanted(traffic.PlantedParams{
		Seed: seed, K: k, BO: bo, DO: do,
		Phases: 24, PhaseLen: 8 * do, ShufflesPerPhase: 3, Fill: 0.8,
		GlobalLevels: global,
	})
}

// Thm14SweepK is experiment E7: the phased algorithm's competitive ratio
// as a function of k (Theorem 14: at most 3k changes per offline change,
// with B_A = 4*B_O and D_A = 2*D_O).
func Thm14SweepK() (*Table, error) {
	return multiSweep("E7",
		"Phased multi-session: change ratio vs k (Theorem 14)",
		"bound: 3k changes per offline change; bandwidth <= 4*B_O (+k ceil slack); delay <= 2*D_O.",
		func(p core.MultiParams) (multiPolicy, error) { return core.NewPhased(p) })
}

// Thm17SweepK is experiment E8: the continuous algorithm's competitive
// ratio as a function of k (Theorem 17: at most 3k changes per offline
// change, with B_A = 5*B_O and D_A = 2*D_O).
func Thm17SweepK() (*Table, error) {
	return multiSweep("E8",
		"Continuous multi-session: change ratio vs k (Theorem 17)",
		"bound: 3k changes per offline change; bandwidth <= 5*B_O (+k ceil slack); delay <= 2*D_O.",
		func(p core.MultiParams) (multiPolicy, error) { return core.NewContinuous(p) })
}

// multiPolicy is a Section 3 algorithm as multiSweep runs it.
type multiPolicy interface {
	sim.MultiAllocator
	sim.Promiser
	Stats() core.MultiStats
}

func multiSweep(id, title, note string, mk func(core.MultiParams) (multiPolicy, error)) (*Table, error) {
	t := &Table{
		ID:    id,
		Title: title,
		Note:  note,
		Headers: []string{
			"k", "online_changes", "offline_changes", "ratio", "bound_3k",
			"max_total_bw", "bw_bound", "max_delay", "bound_2DO", "stages",
		},
	}
	const do = bw.Tick(8)
	ks := []int{2, 4, 8, 16, 32}
	err := ParRows(t, len(ks), func(i int) ([][]string, error) {
		k := ks[i]
		bo := bw.Rate(16 * k)
		pl, err := plantedFor(uint64(1000+k), k, bo, do, false)
		if err != nil {
			return nil, fmt.Errorf("%s k=%d: %w", id, k, err)
		}
		p := core.MultiParams{K: k, BO: bo, DO: do}
		alloc, err := mk(p)
		if err != nil {
			return nil, fmt.Errorf("%s k=%d: %w", id, k, err)
		}
		res, err := sim.RunMulti(pl.Multi, alloc, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s k=%d run: %w", id, k, err)
		}
		online := res.SessionChanges()
		offline := pl.LocalChanges()
		pr := alloc.Promise()
		return [][]string{{
			itoa(int64(k)),
			itoa(online), itoa(offline), f2(ratio(online, offline)),
			itoa(int64(3 * k)),
			itoa(res.MaxTotalRate()), itoa(pr.BA),
			itoa(res.Delay.Max), itoa(pr.DA),
			itoa(int64(alloc.Stats().Stages)),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// PhasedVsContinuous is experiment E9: the ablation between the two
// Section 3 algorithms on identical workloads.
func PhasedVsContinuous() (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "Phased vs continuous multi-session algorithms (ablation)",
		Note: "Same planted workloads. The continuous algorithm renegotiates on " +
			"demand (more natural to implement, says the paper) at the cost of one " +
			"extra B_O of overflow bandwidth.",
		Headers: []string{
			"k", "algorithm", "changes", "max_delay", "max_total_bw", "stages", "global_util", "fairness",
		},
	}
	const do = bw.Tick(8)
	for _, k := range []int{4, 16} {
		bo := bw.Rate(16 * k)
		pl, err := plantedFor(uint64(2000+k), k, bo, do, false)
		if err != nil {
			return nil, fmt.Errorf("E9 k=%d: %w", k, err)
		}
		p := core.MultiParams{K: k, BO: bo, DO: do}

		ph := core.MustNewPhased(p)
		phRes, err := sim.RunMulti(pl.Multi, ph, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("E9 k=%d phased: %w", k, err)
		}
		co := core.MustNewContinuous(p)
		coRes, err := sim.RunMulti(pl.Multi, co, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("E9 k=%d continuous: %w", k, err)
		}
		t.AddRow(itoa(int64(k)), "phased",
			itoa(phRes.SessionChanges()), itoa(phRes.Delay.Max),
			itoa(phRes.MaxTotalRate()), itoa(int64(ph.Stats().Stages)),
			f3(phRes.Report.GlobalUtil), f3(fairnessOf(pl, phRes)))
		t.AddRow(itoa(int64(k)), "continuous",
			itoa(coRes.SessionChanges()), itoa(coRes.Delay.Max),
			itoa(coRes.MaxTotalRate()), itoa(int64(co.Stats().Stages)),
			f3(coRes.Report.GlobalUtil), f3(fairnessOf(pl, coRes)))
	}
	return t, nil
}

// Combined is experiment E10: the Section 4 hybrid algorithm on planted
// workloads with known global and local offline change counts.
func Combined() (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Combined algorithm: global and local changes (Section 4)",
		Note: "Planted workloads with varying total level, both inner variants. " +
			"Expected: global ratio (Bon decisions + global resets) within " +
			"log2(B_A); local changes O(k log B_A) x offline local changes; delay " +
			"<= 2*D_O (+2 ticks reset handoff); bandwidth <= 7*B_O (phased) / " +
			"8*B_O (continuous), +k ceil slack.",
		Headers: []string{
			"k", "inner", "global_ratio", "bound_log2BA", "local_ratio", "bound_3k_log2BA",
			"max_delay", "bound", "max_total_bw", "bw_bound", "flex_util", "util_bound",
		},
	}
	for _, k := range []int{2, 4, 8} {
		p := core.CombinedParams{K: k, BA: 256, DO: 8, UO: 0.5, W: 16}
		bo := p.BA / 8
		pl, err := plantedFor(uint64(3000+k), k, bo, p.DO, true)
		if err != nil {
			return nil, fmt.Errorf("E10 k=%d: %w", k, err)
		}
		variants := []struct {
			name  string
			alloc *core.Combined
		}{
			{name: "phased", alloc: core.MustNewCombined(p)},
			{name: "continuous", alloc: core.MustNewCombinedContinuous(p)},
		}
		agg := pl.Multi.Aggregate()
		logBA := bw.Log2Ceil(p.BA)
		for _, v := range variants {
			res, err := sim.RunMulti(pl.Multi, v.alloc, sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("E10 k=%d %s: %w", k, v.name, err)
			}
			// The paper's "global changes" are decisions about the total
			// bandwidth the provider requests: Bon growth steps plus
			// GLOBAL RESETs (the aggregate schedule additionally wobbles
			// with every local change, which the paper counts as local).
			st := v.alloc.Stats()
			globalChanges := st.BonChanges + st.GlobalResets
			pr := v.alloc.Promise()
			t.AddRow(
				itoa(int64(k)), v.name,
				f2(ratio(globalChanges, pl.GlobalChanges())), itoa(int64(logBA)),
				f2(ratio(res.SessionChanges(), pl.LocalChanges())), itoa(int64(3*k*logBA)),
				itoa(res.Delay.Max), itoa(pr.DA),
				itoa(res.MaxTotalRate()), itoa(pr.BA),
				f3(metrics.FlexibleUtilizationMin(agg, res.Total, 1, pr.UW)), f3(pr.UA),
			)
		}
	}
	return t, nil
}

// fairnessOf computes Jain's fairness index of per-session
// allocation-to-demand ratios for a multi-session run.
func fairnessOf(pl *traffic.Planted, res *sim.MultiResult) float64 {
	k := pl.Multi.K()
	demands := make([]bw.Bits, k)
	allocs := make([]bw.Bits, k)
	for i := 0; i < k; i++ {
		demands[i] = pl.Multi.Session(i).Total()
		allocs[i] = res.Sessions[i].Integral(0, res.Sessions[i].Len())
	}
	return metrics.JainFairness(metrics.SessionShares(demands, allocs))
}
