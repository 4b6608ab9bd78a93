package sim_test

import (
	"fmt"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/queue"
	"dynbw/internal/sim"
)

// fixedRates is an allocator that gives slot i the rate rate[i], moving
// any applied rate that differs, and names no next event: every round
// asks it, so every round is the drain lines' last.
type fixedRates struct {
	rate    []bw.Rate
	changed []int32
	rates   []bw.Rate
}

func (a *fixedRates) RatesActive(_ bw.Tick, _ []int32, _ []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	a.changed, a.rates = a.changed[:0], a.rates[:0]
	for i, r := range a.rate {
		if applied[i] != r {
			a.changed, a.rates = append(a.changed, int32(i)), append(a.rates, r)
		}
	}
	return a.changed, a.rates
}

// readRig steps the kernel and the oracle side by side, each under its
// own fixedRates over one rate table, every slot seated.
type readRig struct {
	t      *testing.T
	slots  sim.Slots
	orc    *oracle
	rate   []bw.Rate
	allocs [2]*fixedRates
	rounds [2]sim.Round
	hist   [2][]queue.DelayHist
	tick   bw.Tick
}

func newReadRig(t *testing.T, rates []bw.Rate, hist bool) *readRig {
	k := len(rates)
	g := &readRig{t: t, slots: sim.NewSlots(k), orc: newOracle(k), rate: append([]bw.Rate(nil), rates...)}
	for j := range g.allocs {
		g.allocs[j] = &fixedRates{rate: g.rate}
	}
	for range k {
		g.slots.Seat()
	}
	if hist {
		g.hist = [2][]queue.DelayHist{make([]queue.DelayHist, k), make([]queue.DelayHist, k)}
		for i := range k {
			g.hist[0][i].Attach(g.slots.Queue(i))
			g.hist[1][i].Attach(&g.orc.q[i])
		}
	}
	return g
}

func (g *readRig) add(i int, bits bw.Bits) {
	g.slots.Add(i, bits)
	g.orc.Add(i, bits)
}

// step runs n rounds on both sides, which must report them alike.
func (g *readRig) step(n int) {
	g.t.Helper()
	for range n {
		err := g.slots.Step(g.tick, g.allocs[0], &g.rounds[0])
		oerr := g.orc.Step(g.tick, g.allocs[1], &g.rounds[1])
		if err != nil || oerr != nil {
			g.t.Fatalf("tick %d: Step %v, oracle %v", g.tick, err, oerr)
		}
		if got, want := fmt.Sprint(g.rounds[0]), fmt.Sprint(g.rounds[1]); got != want {
			g.t.Fatalf("tick %d: round %s, oracle %s", g.tick, got, want)
		}
		g.tick++
	}
}

// vacate ends slot i's tenancy on both sides and seats it again.
func (g *readRig) vacate(i int) {
	g.t.Helper()
	got, want := g.slots.Unseat(i, g.allocs[0]), g.orc.vacate(i)
	if j, _, ok := g.slots.Seat(); got != want || !ok || j != i {
		g.t.Fatalf("slot %d: tenancy %+v, oracle %+v; seated again at %d, %v", i, got, want, j, ok)
	}
}

// agree fails unless slot i reads as the oracle's.
func (g *readRig) agree(i int) {
	g.t.Helper()
	q, o := g.slots.Queue(i), &g.orc.q[i]
	at, ok := q.Oldest()
	oat, ook := o.Oldest()
	if q.Bits() != o.Bits() || q.Served() != o.Served() || q.MaxDelay() != o.MaxDelay() || ok != ook || ok && at != oat ||
		g.slots.Changes(i) != g.orc.changes[i] {
		g.t.Fatalf("tick %d: slot %d queued/served/max delay/oldest/changes %d/%d/%d/%d,%v/%d, oracle %d/%d/%d/%d,%v/%d", g.tick, i,
			q.Bits(), q.Served(), q.MaxDelay(), at, ok, g.slots.Changes(i), o.Bits(), o.Served(), o.MaxDelay(), oat, ook, g.orc.changes[i])
	}
	if g.hist[0] == nil {
		return
	}
	for _, p := range []float64{0.01, 0.5, 0.9, 1} {
		if got, want := g.hist[0][i].Quantile(p), g.hist[1][i].Quantile(p); got != want {
			g.t.Fatalf("tick %d: slot %d: delay quantile %v %d, oracle %d", g.tick, i, p, got, want)
		}
	}
}

// TestQueueReadsIdleSlotInPlace is the read contract of Slots.Queue: a
// slot whose queue holds bits is on a drain line, and a read brings it
// up to the last round before returning it; an empty queue is on no
// line (its next arrival restarts one), and a read leaves its record
// as it stands, line and queue alike, whatever round its line was last
// moved in and however it emptied. Each row drives a table beside the
// oracle, reads its slots, and then drains the table: every round and
// every read, the one under test and those after it, must match the
// oracle's.
func TestQueueReadsIdleSlotInPlace(t *testing.T) {
	rows := []struct {
		name  string
		rates []bw.Rate
		hist  bool
		run   func(g *readRig)
		// stale, when set, is how many rounds the line of the slot read
		// first must stand behind the last round.
		stale bw.Tick
		// read is the slots read.
		read []int
	}{
		{name: "idle, line 1 round stale", rates: []bw.Rate{4, 1}, stale: 1, read: []int{0},
			run: func(g *readRig) { g.add(0, 4); g.step(2) }},
		{name: "idle, line 5 rounds stale", rates: []bw.Rate{4, 1}, stale: 5, read: []int{0},
			run: func(g *readRig) { g.add(0, 4); g.step(6) }},
		{name: "idle, line 64 rounds stale", rates: []bw.Rate{4, 1}, stale: 64, read: []int{0},
			run: func(g *readRig) { g.add(0, 4); g.step(65) }},
		{name: "emptied by complete", rates: []bw.Rate{3}, stale: 2, read: []int{0},
			run: func(g *readRig) { g.add(0, 10); g.step(6) }}, // empties at tick 3, on the wheel
		{name: "emptied by startLines", rates: []bw.Rate{8}, stale: 3, read: []int{0},
			run: func(g *readRig) { g.add(0, 5); g.step(4) }}, // empties in its arrival round
		{name: "vacated while idle", rates: []bw.Rate{4, 2}, stale: 5, read: []int{0, 1},
			run: func(g *readRig) { g.add(0, 4); g.add(1, 3); g.step(3); g.vacate(0); g.step(3) }},
		{name: "backlogged at rate > 0", rates: []bw.Rate{3}, read: []int{0},
			run: func(g *readRig) { g.add(0, 100); g.step(5); g.add(0, 7); g.step(3) }},
		{name: "backlogged at rate 0", rates: []bw.Rate{3}, read: []int{0},
			run: func(g *readRig) { g.add(0, 100); g.step(2); g.rate[0] = 0; g.step(4) }},
		{name: "attached DelayHist", rates: []bw.Rate{2, 5}, hist: true, read: []int{0, 1},
			run: func(g *readRig) {
				g.add(0, 9)
				g.add(1, 5)
				g.step(1)
				g.add(0, 4)
				g.step(2)
				g.add(0, 3)
				g.step(2)
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			g := newReadRig(t, row.rates, row.hist)
			row.run(g)
			last := g.slots.LinesLast()
			if q, line := g.slots.InPlace(row.read[0]); row.stale > 0 && (!q.Empty() || last-line != row.stale) {
				t.Fatalf("slot %d holds %d bits, its line %d rounds behind the last; the row wants it idle, %d behind",
					row.read[0], q.Bits(), last-line, row.stale)
			}
			for _, i := range row.read {
				q, line := g.slots.InPlace(i)
				g.agree(i)
				after, afterLine := g.slots.InPlace(i)
				switch {
				case q.Empty() && (after != q || afterLine != line):
					t.Errorf("idle slot %d: read moved its record: queue %+v line %d, was %+v line %d", i, after, afterLine, q, line)
				case !q.Empty() && afterLine != last:
					t.Errorf("backlogged slot %d: read left its line at %d, the last round is %d", i, afterLine, last)
				}
			}
			for !g.slots.Queue(0).Empty() || g.rounds[0].Backlogged > 0 {
				if g.tick > 400 {
					t.Fatalf("tick %d: the table has not drained", g.tick)
				}
				g.rate[0] = max(g.rate[0], 1)
				g.step(1)
			}
			for i := range row.rates {
				g.agree(i)
			}
		})
	}
}
