package harness

import (
	"fmt"

	"dynbw/internal/adversary"
	"dynbw/internal/baseline"
	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/offline"
	"dynbw/internal/sim"
)

// AdaptiveAdversary is experiment E16: the closed-loop version of the
// impossibility argument. A slack-busting adversary observes each online
// policy's allocation and times its spikes adaptively — silent while the
// policy holds bandwidth, spiking the moment it deallocates. Each policy
// therefore faces its own worst-case trace; the denominator is the greedy
// clairvoyant on that same realized trace.
func AdaptiveAdversary() (*Table, error) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	t := &Table{
		ID:    "E16",
		Title: "Adaptive slack-busting adversary (closed-loop impossibility)",
		Note: "Each policy duels a DropSpiker that reacts to its allocations " +
			"(spike 128 bits whenever the allocation hits zero, spacing in " +
			"[D_O, W]). Expected: the zero-slack per-tick follower's ratio grows " +
			"with the duel length; the paper's algorithms stay near the greedy " +
			"clairvoyant on their own realized traces.",
		Headers: []string{
			"ticks", "policy", "spikes", "online_changes", "greedy_changes",
			"ratio", "max_delay",
		},
	}
	for _, n := range []bw.Tick{512, 2048, 8192} {
		policies := []struct {
			name string
			mk   func() sim.Allocator
		}{
			{name: "no-slack (per-tick)", mk: func() sim.Allocator { return &baseline.PerTick{D: p.DO} }},
			{name: "paper-single", mk: func() sim.Allocator { return core.MustNewSingleSession(p) }},
		}
		for _, pol := range policies {
			adv := &adversary.DropSpiker{Spike: 128, Threshold: 0, MinGap: p.DO, MaxGap: p.W}
			res, err := adversary.Duel(pol.mk(), adv, n)
			if err != nil {
				return nil, fmt.Errorf("E16 n=%d %s: %w", n, pol.name, err)
			}
			greedy, err := offline.Greedy(res.Trace, offline.Params{B: p.BA, D: p.DO, U: p.UO, W: p.W})
			if err != nil {
				return nil, fmt.Errorf("E16 n=%d %s greedy: %w", n, pol.name, err)
			}
			t.AddRow(itoa(n), pol.name,
				itoa(int64(adv.Fired())),
				itoa(res.Schedule.Changes()), itoa(greedy.Changes()),
				f2(ratio(res.Schedule.Changes(), greedy.Changes())),
				itoa(res.Delay.Max))
		}
	}
	return t, nil
}
