package sim_test

import (
	"testing"

	"dynbw/internal/baseline"
	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/rng"
	"dynbw/internal/sim"
)

// TestSeparateHandsEachPolicyItsQueue: Separate hands each policy, at
// every call, its session's arrivals and exactly the bits the kernel's
// FIFO for the session holds then — the tick's arrivals in, nothing of
// the tick served — though the kernel tells Separate of arrivals alone.
// The paper's single-session policy and every baseline run side by side
// on random traces with quiet stretches, so rates move while queues
// stand empty and backlogs carry over.
func TestSeparateHandsEachPolicyItsQueue(t *testing.T) {
	const ticks = 600
	for _, k := range []int{1, 3, 16} {
		src := rng.New(uint64(k))
		slots := sim.NewSlots(k)
		added := make([]bw.Bits, k)
		calls, carried := 0, 0
		allocs := make([]sim.Allocator, k)
		for i := range allocs {
			var p sim.Allocator
			switch i % 5 {
			case 0:
				p = core.MustNewSingleSession(core.SingleParams{BA: 256, DO: 4, UO: 0.5, W: 8})
			case 1:
				p = &baseline.PerTick{D: 4}
			case 2:
				p = &baseline.Periodic{Period: 8, D: 4}
			case 3:
				e, err := baseline.NewEWMA(0.15, 2, 1.5, 4)
				if err != nil {
					t.Fatal(err)
				}
				p = e
			case 4:
				p = baseline.Static{R: 24}
			}
			allocs[i] = sim.AllocatorFunc(func(tick bw.Tick, arrived, queued bw.Bits) bw.Rate {
				calls++
				if want := slots.Queue(i).Bits(); queued != want || arrived != added[i] {
					t.Fatalf("k=%d, tick %d, session %d: handed arrived %d queued %d, the kernel holds %d of which %d arrived",
						k, tick, i, arrived, queued, want, added[i])
				}
				if queued > arrived {
					carried++
				}
				return p.Rate(tick, arrived, queued)
			})
		}
		sep := &sim.Separate{Allocs: allocs}
		for tick := bw.Tick(0); tick < ticks; tick++ {
			quiet := tick%150 >= 100
			for i := range added {
				added[i] = 0
				if !quiet && src.Intn(4) == 0 {
					added[i] = 1 + src.Int64n(100)
					slots.Add(i, added[i])
				}
			}
			if err := slots.Step(tick, sep, new(sim.Round)); err != nil {
				t.Fatalf("k=%d, tick %d: %v", k, tick, err)
			}
		}
		if calls != k*ticks || carried < ticks/10 {
			t.Errorf("k=%d: %d calls over %d ticks, %d with bits carried over; the run compares too little", k, calls, ticks, carried)
		}
	}
}
