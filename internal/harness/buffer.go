package harness

import (
	"fmt"

	"dynbw/internal/baseline"
	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/sim"
)

// BufferSizing is experiment E17: the paper ignores data loss by assuming
// "the size of the queues of the end stations are large enough" (Section
// 1). Claim 2 makes that assumption concrete for the online algorithm:
// its queue never exceeds Bon*D_A <= B_A*2*D_O bits. This experiment
// measures peak queue occupancy and then re-runs every policy with the
// buffer capped at exactly the Claim 2 bound, verifying the paper's
// algorithm loses nothing while the static-mean strawman overflows.
func BufferSizing() (*Table, error) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	pr := core.MustNewSingleSession(p).Promise()
	claim2 := bw.Volume(pr.BA, pr.DA)
	t := &Table{
		ID:    "E17",
		Title: "Buffer sizing: Claim 2's queue bound made operational",
		Note: fmt.Sprintf("Buffer cap = B_A*2*D_O = %d bits (Claim 2). The paper's "+
			"algorithm must fit (zero loss); mean-rate allocation overflows on "+
			"bursty workloads.", claim2),
		Headers: []string{
			"workload", "policy", "peak_queue", "claim2_bound", "dropped_at_bound", "loss_pct",
		},
	}
	for _, w := range workloadMatrix(p, 2048) {
		policies := []struct {
			name string
			mk   func() sim.Allocator
		}{
			{name: "paper-single", mk: func() sim.Allocator { return core.MustNewSingleSession(p) }},
			{name: "static-mean", mk: func() sim.Allocator { return baseline.Static{R: w.Trace.MeanCeil()} }},
		}
		for _, pol := range policies {
			free, err := sim.Run(w.Trace, pol.mk(), sim.Options{})
			if err != nil {
				return nil, fmt.Errorf("E17 %s/%s unbounded: %w", w.Name, pol.name, err)
			}
			capped, err := sim.Run(w.Trace, pol.mk(), sim.Options{QueueCap: claim2})
			if err != nil {
				return nil, fmt.Errorf("E17 %s/%s capped: %w", w.Name, pol.name, err)
			}
			lossPct := 100 * float64(capped.Dropped) / float64(w.Trace.Total())
			t.AddRow(w.Name, pol.name,
				itoa(free.PeakQueue), itoa(claim2),
				itoa(capped.Dropped), f2(lossPct))
		}
	}
	return t, nil
}
