package adversary

import (
	"testing"

	"dynbw/internal/baseline"
	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/offline"
	"dynbw/internal/sim"
)

func TestDuelBasics(t *testing.T) {
	adv := &DropSpiker{Spike: 64, Threshold: 0, MinGap: 4, MaxGap: 16}
	alloc := sim.AllocatorFunc(func(_ bw.Tick, _, queued bw.Bits) bw.Rate {
		return bw.CeilDiv(queued, 2)
	})
	res, err := Duel(alloc, adv, 200)
	if err != nil {
		t.Fatalf("Duel: %v", err)
	}
	if res.Trace.Len() != 200 {
		t.Errorf("trace len = %d", res.Trace.Len())
	}
	if res.Trace.Total() == 0 {
		t.Error("adversary emitted nothing")
	}
	if res.Delay.Served != res.Trace.Total() {
		t.Errorf("served %d of %d", res.Delay.Served, res.Trace.Total())
	}
	if adv.Fired() < 10 {
		t.Errorf("Fired = %d, want many spikes in 200 ticks", adv.Fired())
	}
}

func TestDuelAdaptivity(t *testing.T) {
	// The realized trace depends on the opponent: a fast-dropping
	// allocator gets spiked more often than one that holds bandwidth.
	mk := func() *DropSpiker {
		return &DropSpiker{Spike: 64, Threshold: 0, MinGap: 4, MaxGap: 64}
	}
	dropFast := sim.AllocatorFunc(func(_ bw.Tick, _, queued bw.Bits) bw.Rate {
		return queued // serve everything immediately, then sit at zero
	})
	holder := sim.AllocatorFunc(func(_ bw.Tick, _, _ bw.Bits) bw.Rate {
		return 8 // never drops to the threshold
	})
	advFast := mk()
	if _, err := Duel(dropFast, advFast, 400); err != nil {
		t.Fatal(err)
	}
	advHold := mk()
	if _, err := Duel(holder, advHold, 400); err != nil {
		t.Fatal(err)
	}
	if advFast.Fired() <= advHold.Fired() {
		t.Errorf("adaptive adversary spiked the dropper %d times vs holder %d times; want more",
			advFast.Fired(), advHold.Fired())
	}
}

func TestDuelRejectsNegativeRate(t *testing.T) {
	adv := &DropSpiker{Spike: 8, MinGap: 1, MaxGap: 4}
	alloc := sim.AllocatorFunc(func(bw.Tick, bw.Bits, bw.Bits) bw.Rate { return -1 })
	if _, err := Duel(alloc, adv, 10); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestDuelNeverDrains(t *testing.T) {
	adv := &DropSpiker{Spike: 8, MinGap: 1, MaxGap: 4}
	alloc := sim.AllocatorFunc(func(bw.Tick, bw.Bits, bw.Bits) bw.Rate { return 0 })
	if _, err := Duel(alloc, adv, 10); err == nil {
		t.Fatal("undrained duel accepted")
	}
}

// TestSlackSeparation is the adaptive impossibility phenomenon end to
// end: against the same adversary construction, the zero-slack per-tick
// follower is forced into changes proportional to the spike count, while
// the paper's slack-equipped algorithm and the clairvoyant greedy on the
// realized trace stay within a constant factor of each other.
func TestSlackSeparation(t *testing.T) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	const n = bw.Tick(2048)
	mkAdv := func() *DropSpiker {
		return &DropSpiker{Spike: 128, Threshold: 0, MinGap: p.DO, MaxGap: p.W}
	}

	noSlack, err := Duel(&baseline.PerTick{D: p.DO}, mkAdv(), n)
	if err != nil {
		t.Fatal(err)
	}
	paperAlg := core.MustNewSingleSession(p)
	paper, err := Duel(paperAlg, mkAdv(), n)
	if err != nil {
		t.Fatal(err)
	}

	// Denominators: greedy clairvoyant on each realized trace.
	gNoSlack, err := offline.Greedy(noSlack.Trace, offline.Params{B: p.BA, D: p.DO, U: p.UO, W: p.W})
	if err != nil {
		t.Fatal(err)
	}
	gPaper, err := offline.Greedy(paper.Trace, offline.Params{B: p.BA, D: p.DO, U: p.UO, W: p.W})
	if err != nil {
		t.Fatal(err)
	}

	noSlackRatio := float64(noSlack.Schedule.Changes()) / float64(max(1, gNoSlack.Changes()))
	paperRatio := float64(paper.Schedule.Changes()) / float64(max(1, gPaper.Changes()))
	if noSlackRatio < 4*paperRatio {
		t.Errorf("no separation: no-slack ratio %.1f vs paper ratio %.1f", noSlackRatio, paperRatio)
	}
	if da := paperAlg.Promise().DA; paper.Delay.Max > da {
		t.Errorf("paper delay %d exceeded %d under adaptive attack", paper.Delay.Max, da)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// silent is the degenerate adversary: it emits zero arrivals forever,
// whatever the opponent allocates.
type silent struct{}

func (silent) Arrivals(bw.Tick, bw.Rate) bw.Bits { return 0 }

// TestDuelZeroTicks: an n = 0 duel is legal and trivially drained — an
// empty realized trace, nothing served, no spikes fired, and no error
// from the empty-trace construction.
func TestDuelZeroTicks(t *testing.T) {
	adv := &DropSpiker{Spike: 64, Threshold: 0, MinGap: 4, MaxGap: 16}
	alloc := sim.AllocatorFunc(func(_ bw.Tick, _, queued bw.Bits) bw.Rate {
		return bw.CeilDiv(queued, 2)
	})
	res, err := Duel(alloc, adv, 0)
	if err != nil {
		t.Fatalf("zero-tick Duel: %v", err)
	}
	if res.Trace.Len() != 0 || res.Trace.Total() != 0 {
		t.Errorf("trace len %d total %d, want empty", res.Trace.Len(), res.Trace.Total())
	}
	if res.Delay.Served != 0 || res.Delay.Max != 0 {
		t.Errorf("delay stats %+v, want zero", res.Delay)
	}
	if adv.Fired() != 0 {
		t.Errorf("Fired = %d in a zero-tick duel", adv.Fired())
	}
}

// TestDuelSilentAdversary: an adversary that never sends is the other
// degenerate closed loop. The duel terminates right after the horizon
// (nothing to drain), the realized trace is all zeros, and a
// queue-driven allocator never allocates.
func TestDuelSilentAdversary(t *testing.T) {
	var peak bw.Rate
	alloc := sim.AllocatorFunc(func(_ bw.Tick, _, queued bw.Bits) bw.Rate {
		r := bw.CeilDiv(queued, 2)
		if r > peak {
			peak = r
		}
		return r
	})
	res, err := Duel(alloc, silent{}, 256)
	if err != nil {
		t.Fatalf("silent Duel: %v", err)
	}
	if res.Trace.Len() != 256 {
		t.Errorf("trace len = %d, want the full 256-tick horizon", res.Trace.Len())
	}
	if res.Trace.Total() != 0 {
		t.Errorf("silent adversary emitted %d bits", res.Trace.Total())
	}
	if peak != 0 {
		t.Errorf("allocator peaked at %d against a silent adversary", peak)
	}
	if res.Delay.Served != 0 || res.Delay.Max != 0 {
		t.Errorf("delay stats %+v, want zero", res.Delay)
	}
}

// TestDuelSilentAgainstPaperAlgorithm: the paper's single-session
// algorithm also stays at zero against a silent adversary — zero
// arrivals keep the tracker at zero, so no allocation change is ever
// made (no free changes charged to an idle session).
func TestDuelSilentAgainstPaperAlgorithm(t *testing.T) {
	alloc := core.MustNewSingleSession(core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16})
	res, err := Duel(alloc, silent{}, 256)
	if err != nil {
		t.Fatalf("silent Duel: %v", err)
	}
	for _, tick := range []bw.Tick{0, 128, 255} {
		if r := res.Schedule.At(tick); r != 0 {
			t.Errorf("allocation %d at tick %d against a silent adversary", r, tick)
		}
	}
}

// TestDuelMatchesReplay: a duel steps the same one-slot kernel as
// sim.Run, so replaying its realized trace through a fresh copy of the
// policy reproduces the duel's schedule and delays exactly.
func TestDuelMatchesReplay(t *testing.T) {
	p := core.SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	adv := &DropSpiker{Spike: 128, Threshold: 0, MinGap: p.DO, MaxGap: p.W}
	duel, err := Duel(core.MustNewSingleSession(p), adv, 1024)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := sim.Run(duel.Trace, core.MustNewSingleSession(p), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !duel.Schedule.Equal(replay.Schedule) {
		t.Errorf("duel made %d changes over %d ticks, its replay %d over %d",
			duel.Schedule.Changes(), duel.Schedule.Len(), replay.Schedule.Changes(), replay.Schedule.Len())
	}
	if duel.Delay != replay.Delay {
		t.Errorf("duel delays %+v, replay %+v", duel.Delay, replay.Delay)
	}
}
