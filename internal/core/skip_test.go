package core

import (
	"fmt"
	"slices"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/rng"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
	"dynbw/internal/traffic"
)

// asked hides a policy's Next, so the step kernel asks it every tick, as
// it asks a policy that has no Next.
type asked struct{ sim.SparseAllocator }

type nexter interface{ Next(t bw.Tick) bw.Tick }

// skipLane is one run of a policy under the step kernel.
type skipLane struct {
	p     policyUnderTest
	alloc sim.SparseAllocator
	slots sim.Slots
	round sim.Round
	seen  int // events compared so far
}

func newSkipLane(p policyUnderTest, alloc sim.SparseAllocator, k int) *skipLane {
	return &skipLane{p: p, alloc: alloc, slots: sim.NewSlots(k)}
}

// compareSkipping steps one policy through the kernel twice over the
// same arrivals, input(tick, arrived) filling each tick's: once as it
// is, so the kernel skips the quiet rounds its Next allows, and once
// behind asked. Every tick the two must apply the same rates and report
// the same changes, arrivals and served bits, and the policies must emit
// the same events. The run asked every tick also holds the policy to its
// word: no rate moves at a tick before the Next it named at an earlier
// tick, unless bits arrived since. It runs ticks input ticks and then
// 4·D_O+2 more with nothing arriving — every queue drains within 2·D_O,
// and the REDUCEs and phase boundaries that follow within 2·D_O+2 — and
// returns how many rounds the skipping run did not ask the policy. It
// reports the first difference through fail and stops there.
func compareSkipping(k int, do, ticks bw.Tick, build func() policyUnderTest,
	input func(tick bw.Tick, arrived []bw.Bits), fail func(format string, args ...any)) (skipped int) {
	sp, ap := build(), build()
	skips := newSkipLane(sp, sp.alloc.(sim.SparseAllocator), k)
	asks := newSkipLane(ap, asked{ap.alloc.(sim.SparseAllocator)}, k)
	next, _ := ap.alloc.(nexter)
	arrived := make([]bw.Bits, k)
	var hold bw.Tick // no rate may move before it while nothing arrives
	for tick := bw.Tick(0); tick < ticks+4*do+2; tick++ {
		clear(arrived)
		if tick < ticks {
			input(tick, arrived)
		}
		for i, a := range arrived {
			if a > 0 {
				skips.slots.Add(i, a)
				asks.slots.Add(i, a)
				hold = 0
			}
		}
		due := skips.round.Due
		for _, l := range []*skipLane{skips, asks} {
			if err := l.slots.Step(tick, l.alloc, &l.round); err != nil {
				fail("tick %d: %v", tick, err)
				return skipped
			}
		}
		if skips.round.Active == 0 && tick < due {
			skipped++
		}
		s, a := &skips.round, &asks.round
		if !slices.Equal(s.Rates, a.Rates) || s.Changes != a.Changes || s.Arrived != a.Arrived || s.Served != a.Served {
			fail("tick %d: skipping applied %v (%d changes, %d in, %d out), asked every tick %v (%d changes, %d in, %d out)",
				tick, s.Rates, s.Changes, s.Arrived, s.Served, a.Rates, a.Changes, a.Arrived, a.Served)
			return skipped
		}
		se, ae := skips.p.log.events[skips.seen:], asks.p.log.events[asks.seen:]
		if !slices.Equal(se, ae) {
			fail("tick %d: skipping emitted %v, asked every tick %v", tick, se, ae)
			return skipped
		}
		skips.seen, asks.seen = len(skips.p.log.events), len(asks.p.log.events)
		if tick < hold && a.Changes != 0 {
			fail("tick %d: %d rates moved with nothing arriving before the Next the policy named, %d", tick, a.Changes, hold)
			return skipped
		}
		if next == nil {
			if s.Due != tick+1 {
				fail("tick %d: a policy without Next is due again at %d, not the next tick", tick, s.Due)
				return skipped
			}
			continue
		}
		n := next.Next(tick)
		if n <= tick {
			fail("tick %d: Next is %d, not after the tick", tick, n)
			return skipped
		}
		hold = max(hold, n)
	}
	return skipped
}

// multiInput reads tick t of m's sessions, zero past their end.
func multiInput(m *trace.Multi) func(bw.Tick, []bw.Bits) {
	return func(t bw.Tick, arrived []bw.Bits) {
		for i := range arrived {
			arrived[i] = m.Session(i).At(t)
		}
	}
}

// TestSkipMatchesAsking is the differential test of the kernel's quiet
// rounds: a policy the kernel skips by its Next must do, tick for tick,
// what it does when asked every tick (compareSkipping). Each of the four
// paper policies runs on E7's and E8's planted workloads (one set of
// traces, which E7 runs phased and E8 continuous), on the on/off and
// rotating traces the gateway is checked against the simulator on, and
// on every input of two sessions over smallTicks ticks with arrivals of
// 0, 1, 2, 4 or 8 bits. The policies with a Next must have had rounds skipped;
// Combined has none — its utilization tracker moves on quiet ticks — and
// must be asked every tick, which is the same run twice.
func TestSkipMatchesAsking(t *testing.T) {
	type input struct {
		name   string
		k      int
		do     bw.Tick
		share  bw.Rate
		ticks  bw.Tick
		arrive func(bw.Tick, []bw.Bits)
	}
	var inputs []input
	for _, k := range []int{2, 4, 8, 16, 32} { // E7 and E8 (harness.multiSweep)
		const do = bw.Tick(8)
		pl, err := traffic.NewPlanted(traffic.PlantedParams{
			Seed: uint64(1000 + k), K: k, BO: bw.Rate(16 * k), DO: do,
			Phases: 24, PhaseLen: 8 * do, ShufflesPerPhase: 3, Fill: 0.8,
		})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("E7-E8/k=%d", k), k, do, 16, pl.Multi.Len(), multiInput(pl.Multi)})
	}
	{ // TestGatewayMatchesSimulator's on/off and rotating traces
		const (
			share = bw.Rate(16)
			do    = bw.Tick(4)
		)
		sessions := make([]*trace.Trace, 16)
		for i := range sessions {
			src := traffic.OnOff{Seed: uint64(100 + i), PeakRate: 3 * share, MeanOn: 3, MeanOff: 9}
			sessions[i] = traffic.ClampTrace(src.Generate(300), share, do)
		}
		onOff := trace.MustNewMulti(sessions)
		inputs = append(inputs, input{"onoff", 16, do, share, onOff.Len(), multiInput(onOff)})

		const k, cycles = 400, 250
		src := rng.New(9)
		arrivals := make([][]bw.Bits, k)
		for i := range arrivals {
			arrivals[i] = make([]bw.Bits, cycles*do)
		}
		for c := 0; c < cycles; c++ {
			for i := c % 100; i < k; i += 100 {
				arrivals[i][bw.Tick(c)*do] = 1 + src.Int64n(3*bw.Volume(share, do))
			}
		}
		rotating := func(t bw.Tick, arrived []bw.Bits) {
			for i := range arrived {
				arrived[i] = arrivals[i][t]
			}
		}
		inputs = append(inputs, input{"rotating", k, do, share, cycles * do, rotating})
	}
	for _, in := range inputs {
		for _, oc := range oracleCases(in.do) {
			t.Run(in.name+"/"+oc.name, func(t *testing.T) {
				build := func() policyUnderTest { return oc.build(in.k, in.share, false) }
				skipped := compareSkipping(in.k, in.do, in.ticks, build, in.arrive, t.Fatalf)
				checkSkipped(t, oc.name, skipped)
			})
		}
	}
	for _, oc := range oracleCases(smallDO) {
		t.Run("every-input/"+oc.name, func(t *testing.T) {
			skipped := everySmallInput(t, oc)
			checkSkipped(t, oc.name, skipped)
		})
	}
}

// The exhaustive scope: every input of two sessions, one share a tick
// each, over smallTicks ticks of smallAlphabet bits. With D_O = 4 a
// share drains 4 bits a phase, so 8 raises a session, and three raises
// end a stage. Three ticks are 15 625 inputs a policy and take well
// under a second; five are 9 765 625 and take about three minutes a
// policy, too long for every run of the suite (phased, continuous and
// combined-continuous passed them).
const (
	smallDO    = bw.Tick(4)
	smallTicks = 3
)

var smallAlphabet = []bw.Bits{0, 1, 2, 4, 8}

// everySmallInput runs compareSkipping on every input of the exhaustive
// scope and returns the rounds skipped over all of them. It stops at the
// first input that differs.
func everySmallInput(t *testing.T, oc oracleCase) (skipped int) {
	const k = 2
	n := 1
	for range k * smallTicks {
		n *= len(smallAlphabet)
	}
	digits := make([]bw.Bits, k*smallTicks)
	input := func(tick bw.Tick, arrived []bw.Bits) { copy(arrived, digits[int(tick)*k:]) }
	build := func() policyUnderTest { return oc.build(k, 1, false) }
	failed := false
	for code := 0; code < n && !failed; code++ {
		for j, c := 0, code; j < len(digits); j, c = j+1, c/len(smallAlphabet) {
			digits[j] = smallAlphabet[c%len(smallAlphabet)]
		}
		skipped += compareSkipping(k, smallDO, smallTicks, build, input, func(format string, args ...any) {
			t.Errorf("input %v (tick-major, two sessions a tick): "+format, append([]any{digits}, args...)...)
			failed = true
		})
	}
	return skipped
}

// checkSkipped holds a run to its policy's kind: one with a Next must
// have been skipped on some round, or the comparison checked nothing;
// Combined must never have been.
func checkSkipped(t *testing.T, policy string, skipped int) {
	t.Helper()
	if policy == "phased" || policy == "continuous" {
		if skipped == 0 {
			t.Errorf("%s: no round was skipped; the comparison checked nothing", policy)
		}
	} else if skipped != 0 {
		t.Errorf("%s has no Next, yet %d rounds were skipped", policy, skipped)
	}
}
