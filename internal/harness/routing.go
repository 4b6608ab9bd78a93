package harness

import (
	"fmt"
	"slices"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/metrics"
	"dynbw/internal/route"
	"dynbw/internal/sim"
	"dynbw/internal/traffic"
)

// The routing experiments (E23-E25) exercise the two-level system: a
// routing tier places sessions across k backend links (internal/route)
// and each link runs as a gateway shard does, its sessions' slots under
// the paper's k-session phased algorithm, with sessions arriving and
// departing. They compare the three placement policies of the
// balanced-allocation literature — greedy least-loaded, DAR with trunk
// reservation, and power-of-two-choices — on blocking, balance, and the
// combined change+reroute cost.

// routeAlloc is the policy every routing experiment runs on each link:
// the paper's phased algorithm over the link's k session slots, with B_O
// equal to the link capacity.
func routeAlloc(k int, cap bw.Rate) (sim.SparseAllocator, error) {
	p, err := core.NewPhased(core.MultiParams{K: k, BO: cap, DO: 8})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// routePolicies is the fixed policy grid.
var routePolicies = []string{"greedy", "dar", "p2c"}

// routeSeeds are the per-policy router seeds (greedy draws none).
var routeSeeds = map[string]uint64{"dar": 101, "p2c": 211}

// routeRun runs one cell of a routing experiment: the named placement
// policy over links of capacity 64, each under routeAlloc, rebalancing
// every `every` ticks (0: never) by at most two moves a pass. DAR's
// reserve is one session's nominal rate; seeds are per-policy constants
// so every sweep point is self-contained.
func routeRun(policy string, links int, w traffic.Churn, every bw.Tick) (*route.Result, error) {
	r, err := route.New(policy, route.Uniform(links, 64), w.Rate, routeSeeds[policy])
	if err != nil {
		return nil, err
	}
	return route.Run(w, route.Config{Router: r, Alloc: routeAlloc, RebalanceEvery: every, RebalanceLimit: 2})
}

// linkShares lists each link's routed bits, for Jain's index, and
// their total.
func linkShares(res *route.Result) (shares []float64, total float64) {
	for _, b := range res.LinkBits {
		shares = append(shares, float64(b))
		total += float64(b)
	}
	return shares, total
}

// droppedShare is the fraction of the routed bits that departed with
// their sessions unserved.
func droppedShare(res *route.Result) string {
	_, routed := linkShares(res)
	return f3(float64(res.Dropped) / max(routed, 1))
}

// RoutingBlocking is experiment E23: blocking probability and overflow
// pressure across placement policies under an offered load near the
// aggregate capacity, for correlated (MMPP) and heavy-tailed traffic.
func RoutingBlocking() (*Table, error) {
	t := &Table{
		ID:    "E23",
		Title: "Routing tier: blocking and overflow across placement policies",
		Note: "Offered nominal load ~ aggregate capacity (4 links x 4 session slots). " +
			"Expected: greedy blocks least (full information), DAR pays for trunk " +
			"reservation with extra blocking but shields direct traffic, p2c sits " +
			"between with two probes; overflow ticks track how bursty traffic " +
			"escapes the nominal reservation. Each link runs phased over its 4 " +
			"slots; dropped is the fraction of routed bits still queued when " +
			"their session left.",
		Headers: []string{
			"traffic", "policy", "offered", "placed", "blocked", "block_rate",
			"overflow_ticks", "changes", "max_delay", "dropped",
		},
	}
	type cell struct{ traffic, policy string }
	var grid []cell
	for _, traffic := range []string{"mmpp", "heavytail"} {
		for _, policy := range routePolicies {
			grid = append(grid, cell{traffic, policy})
		}
	}
	err := ParRows(t, len(grid), func(i int) ([][]string, error) {
		c := grid[i]
		w := traffic.Churn{
			Seed: 23, Horizon: 2048, MeanGap: 2, MeanHold: 48,
			Rate: 16, Traffic: c.traffic,
		}
		res, err := routeRun(c.policy, 4, w, 0)
		if err != nil {
			return nil, fmt.Errorf("E23 %s/%s: %w", c.traffic, c.policy, err)
		}
		return [][]string{{
			c.traffic, c.policy,
			itoa(res.Offered), itoa(res.Placed), itoa(res.Blocked),
			f3(float64(res.Blocked) / float64(res.Offered)),
			itoa(res.OverflowTicks), itoa(res.Changes), itoa(res.MaxDelay),
			droppedShare(res),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// RoutingBalance is experiment E24: how evenly each placement policy
// spreads traffic across the links as k grows, measured by Jain's
// fairness index over per-link routed bits — the balanced-allocation
// story (two choices nearly match full information; DAR's home-link
// bias shows up as imbalance).
func RoutingBalance() (*Table, error) {
	t := &Table{
		ID:    "E24",
		Title: "Routing tier: per-link balance vs link count",
		Note: "Moderate load, MMPP sessions. jain_bits is Jain's fairness over " +
			"per-link routed bits (1 = perfectly even); max_share is the busiest " +
			"link's fraction of all routed bits (1/k is ideal).",
		Headers: []string{
			"k", "policy", "placed", "blocked", "jain_bits", "max_share", "max_delay",
		},
	}
	type cell struct {
		k      int
		policy string
	}
	var grid []cell
	for _, k := range []int{2, 4, 8} {
		for _, policy := range routePolicies {
			grid = append(grid, cell{k, policy})
		}
	}
	err := ParRows(t, len(grid), func(i int) ([][]string, error) {
		c := grid[i]
		w := traffic.Churn{
			Seed: 24, Horizon: 4096, MeanGap: 2, MeanHold: 32,
			Rate: 8, Traffic: "mmpp",
		}
		res, err := routeRun(c.policy, c.k, w, 0)
		if err != nil {
			return nil, fmt.Errorf("E24 k=%d/%s: %w", c.k, c.policy, err)
		}
		shares, total := linkShares(res)
		maxShare := 0.0
		if total > 0 {
			maxShare = slices.Max(shares) / total
		}
		return [][]string{{
			itoa(c.k), c.policy,
			itoa(res.Placed), itoa(res.Blocked),
			f3(metrics.JainFairness(shares)), f3(maxShare), itoa(res.MaxDelay),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// RoutingCost is experiment E25: the combined two-level cost — the
// paper's allocation changes plus one per reroute (the b-matching
// reconfiguration measure) — as the rebalance cadence varies, under
// heavy-tailed traffic. Rebalancing buys balance with reroutes and
// perturbs each link's stream, which feeds back into allocation
// changes.
func RoutingCost() (*Table, error) {
	t := &Table{
		ID:    "E25",
		Title: "Routing tier: change+reroute cost vs rebalance cadence",
		Note: "total_cost = allocation changes (paper's measure, summed over links) " +
			"+ reroutes (one per migration). interval 0 never rebalances. " +
			"Expected: frequent rebalance improves jain_bits but pays reroutes; " +
			"the cost-optimal cadence is policy-dependent. A reroute carries the " +
			"session's backlog to the new link; dropped is the fraction of routed " +
			"bits still queued when their session left.",
		Headers: []string{
			"policy", "interval", "placed", "reroutes", "changes", "total_cost",
			"jain_bits", "max_delay", "dropped",
		},
	}
	type cell struct {
		policy   string
		interval bw.Tick
	}
	var grid []cell
	for _, policy := range routePolicies {
		for _, interval := range []bw.Tick{0, 32, 128} {
			grid = append(grid, cell{policy, interval})
		}
	}
	err := ParRows(t, len(grid), func(i int) ([][]string, error) {
		c := grid[i]
		w := traffic.Churn{
			Seed: 25, Horizon: 4096, MeanGap: 2, MeanHold: 40,
			Rate: 8, Traffic: "heavytail",
		}
		res, err := routeRun(c.policy, 4, w, c.interval)
		if err != nil {
			return nil, fmt.Errorf("E25 %s/%d: %w", c.policy, c.interval, err)
		}
		shares, _ := linkShares(res)
		return [][]string{{
			c.policy, itoa(c.interval),
			itoa(res.Placed), itoa(res.Reroutes), itoa(res.Changes), itoa(res.TotalCost),
			f3(metrics.JainFairness(shares)), itoa(res.MaxDelay), droppedShare(res),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
