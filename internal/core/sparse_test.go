package core

import (
	"fmt"
	"slices"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/rng"
	"dynbw/internal/sim"
)

// eventLog records every event a policy emits, in order.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Event(e obs.Event) { l.events = append(l.events, e) }

// policyUnderTest is one policy instance with its observer and a way to
// read its stats as a comparable value.
type policyUnderTest struct {
	alloc sim.MultiAllocator
	log   *eventLog
	stats func() any
}

func observed(a interface {
	sim.MultiAllocator
	obs.Observable
}, stats func() any) policyUnderTest {
	l := &eventLog{}
	a.SetObserver(l)
	return policyUnderTest{alloc: a, log: l, stats: stats}
}

// oracleCase builds the dense reference and two instances of the sparse
// policy for one configuration.
type oracleCase struct {
	name  string
	build func(k int, share bw.Rate, dense bool) policyUnderTest
}

// oracleCases builds each policy with B_O = share·k: share is the
// per-session regular quantum.
func oracleCases(do bw.Tick) []oracleCase {
	multi := func(k int, share bw.Rate) MultiParams { return MultiParams{K: k, BO: share * bw.Rate(k), DO: do} }
	combined := func(k int, share bw.Rate) CombinedParams {
		return CombinedParams{K: k, BA: bw.NextPow2(8 * share * bw.Rate(k)), DO: do, UO: 0.5, W: 2 * do}
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	return []oracleCase{
		{"phased", func(k int, share bw.Rate, dense bool) policyUnderTest {
			if dense {
				a, err := newDensePhased(multi(k, share))
				must(err)
				return observed(a, func() any { return a.Stats() })
			}
			a := MustNewPhased(multi(k, share))
			return observed(a, func() any { return a.Stats() })
		}},
		{"continuous", func(k int, share bw.Rate, dense bool) policyUnderTest {
			if dense {
				a, err := newDenseContinuous(multi(k, share))
				must(err)
				return observed(a, func() any { return a.Stats() })
			}
			a := MustNewContinuous(multi(k, share))
			return observed(a, func() any { return a.Stats() })
		}},
		{"combined", func(k int, share bw.Rate, dense bool) policyUnderTest {
			if dense {
				a, err := newDenseCombined(combined(k, share))
				must(err)
				return observed(a, func() any { return a.Stats() })
			}
			a := MustNewCombined(combined(k, share))
			return observed(a, func() any { return a.Stats() })
		}},
		{"combined-continuous", func(k int, share bw.Rate, dense bool) policyUnderTest {
			if dense {
				a, err := newDenseCombinedContinuous(combined(k, share))
				must(err)
				return observed(a, func() any { return a.Stats() })
			}
			a := MustNewCombinedContinuous(combined(k, share))
			return observed(a, func() any { return a.Stats() })
		}},
	}
}

// oracleTrace fills arrived with tick t's arrivals of one of three seeded
// shapes. share is the per-session regular quantum and do the delay
// bound, so the sizes are in units the policies react to.
//
//	sparse  each tick about 1 % of the sessions get a burst, some of them
//	        too large for a share to drain in D_O (phase raises, TEST
//	        spills and their REDUCEs); the rest of the table idles
//	dense   every session receives something on every tick
//	bursty  every third phase most sessions burst at once, far past their
//	        share (stage resets), then the table falls silent (the
//	        utilization tracker ends global stages; the estimate regrows)
func oracleTrace(shape string, src *rng.Source, arrived []bw.Bits, t, do bw.Tick, share bw.Rate) {
	clear(arrived)
	switch shape {
	case "sparse":
		for i := range arrived {
			if src.Intn(100) == 0 || len(arrived) == 1 && src.Intn(4) == 0 {
				arrived[i] = 1 + src.Int64n(3*bw.Volume(share, do))
			}
		}
	case "dense":
		for i := range arrived {
			arrived[i] = 1 + src.Int64n(2*share)
		}
	case "bursty":
		switch phase := (t / do) % 6; {
		case phase == 0 && t%do < 2:
			for i := range arrived {
				if src.Intn(4) != 0 {
					arrived[i] = bw.Volume(share, do) + src.Int64n(4*bw.Volume(share, do))
				}
			}
		case phase < 3:
			for i := range arrived {
				if src.Intn(8) == 0 {
					arrived[i] = 1 + src.Int64n(share)
				}
			}
		}
	}
}

// TestSparseMatchesDense is the oracle test of the sparse policies: on
// seeded traces of three shapes and four table sizes, and on one more run
// that starts at tick 2^40 with shares of 2^24 bits a tick (where a rate
// times the tick overflows an int64: the policies' drain lines must count
// from a recent epoch, not from tick 0), each policy must
// hand out the rates the dense reference (oracle_test.go) hands out on
// every tick, end with the same stats and have emitted the same events in
// the same order — through the dense Rates entry, and through RatesActive
// driven the way the step kernel drives it: against the applied vector,
// reporting exactly the sessions whose rate moved, each once, with the
// rates that bring that vector to the reference's. On every tick the
// sparse instance's events must also account for the rates that moved
// (checkEmitOnChange): the paper's cost measure is the number of
// changes, so a change without its event is invisible to the trace.
func TestSparseMatchesDense(t *testing.T) {
	const do = bw.Tick(8)
	for _, oc := range oracleCases(do) {
		rules := map[string]int{}
		type row struct {
			k     int
			shape string
			start bw.Tick
			share bw.Rate
		}
		var rows []row
		for _, k := range []int{1, 7, 64, 1000} {
			for _, shape := range []string{"sparse", "dense", "bursty"} {
				rows = append(rows, row{k, shape, 0, 16})
			}
		}
		rows = append(rows, row{64, "bursty", 1 << 40, 1 << 24})
		for _, rw := range rows {
			k, shape, start, share := rw.k, rw.shape, rw.start, rw.share
			name := fmt.Sprintf("%s/k=%d/%s", oc.name, k, shape)
			if start != 0 {
				name += "/from=2^40/share=2^24"
			}
			t.Run(name, func(t *testing.T) {
				ticks := bw.Tick(60 * do)
				if k == 1000 {
					ticks = 24 * do
				}
				ref := oc.build(k, share, true)
				viaDense := oc.build(k, share, false)
				viaSparse := oc.build(k, share, false)
				sparse := viaSparse.alloc.(sim.SparseAllocator)

				src := rng.New(uint64(k)*31 + uint64(len(shape)))
				arrived := make([]bw.Bits, k)
				queued := make([]bw.Bits, k)  // the real FIFO queues, as the kernel keeps them
				applied := make([]bw.Rate, k) // the kernel's vector, written only here
				var in sim.Compact
				for tick := start; tick < start+ticks; tick++ {
					oracleTrace(shape, src, arrived, tick, do, share)
					for i, a := range arrived {
						queued[i] += a
					}
					want := ref.alloc.Rates(tick, arrived, queued)
					if got := viaDense.alloc.Rates(tick, arrived, queued); !slices.Equal(got, want) {
						t.Fatalf("tick %d: Rates differs from the reference\n got %v\nwant %v", tick, got, want)
					}
					sessions, bits := in.Collect(arrived)
					seen := len(viaSparse.log.events)
					changed, rates := sparse.RatesActive(tick, sessions, bits, applied)
					var moved []int32
					for i, r := range want {
						if r != applied[i] {
							moved = append(moved, int32(i))
						}
					}
					checkEmitOnChange(t, tick, tick == start, moved, viaSparse.log.events[seen:])
					sorted := slices.Clone(changed)
					slices.Sort(sorted)
					if !slices.Equal(sorted, moved) {
						t.Fatalf("tick %d: changed = %v, rates moved for %v", tick, sorted, moved)
					}
					for j, i := range changed {
						applied[i] = rates[j]
					}
					if !slices.Equal(applied, want) {
						t.Fatalf("tick %d: RatesActive's changes differ from the reference\n got %v\nwant %v", tick, applied, want)
					}
					for i, r := range want {
						queued[i] -= bw.Min(queued[i], r)
					}
				}
				for _, p := range []policyUnderTest{viaDense, viaSparse} {
					if got, want := p.stats(), ref.stats(); got != want {
						t.Errorf("stats %+v, reference %+v", got, want)
					}
					if !slices.Equal(p.log.events, ref.log.events) {
						t.Errorf("%d events, reference %d; first difference at %d",
							len(p.log.events), len(ref.log.events), firstDiff(p.log.events, ref.log.events))
					}
				}
				for _, e := range ref.log.events {
					rules[e.Rule]++
				}
			})
		}
		// The comparison above proves nothing about a branch no trace took.
		need := map[string][]string{
			"phased":              {"phase-raise", "phase-spill", "phase-drain", "stage-reset"},
			"continuous":          {"test-spill", "reduce", "stage-reset"},
			"combined":            {"phase-raise", "phase-drain", "stage-reset", "global-reset", "bon-grow", "global-drain"},
			"combined-continuous": {"test-spill", "reduce", "stage-reset", "global-reset", "bon-grow", "global-drain"},
		}[oc.name]
		for _, rule := range need {
			if rules[rule] == 0 {
				t.Errorf("%s: no trace produced a %q event (saw %v)", oc.name, rule, rules)
			}
		}
	}
}

// checkEmitOnChange holds one tick's events to the paper's cost measure:
// every session whose rate moved is named by a renegotiation, every
// renegotiation names a session whose rate moved, and its type (up or
// down) agrees with its own old and new rates. Two rules bound it. A
// stage event (Session -1) rewrites rates wholesale, so at its tick
// neither direction is required; and the first round applies the
// constructor's initial stage, which emits nothing by design.
func checkEmitOnChange(t *testing.T, tick bw.Tick, first bool, moved []int32, events []obs.Event) {
	t.Helper()
	stage := false
	named := map[int]bool{}
	for _, e := range events {
		switch e.Type {
		case obs.EventStageReset:
			stage = stage || e.Session == -1
		case obs.EventRenegotiateUp, obs.EventRenegotiateDown:
			if up := e.Type == obs.EventRenegotiateUp; e.NewRate == e.OldRate || up != (e.NewRate > e.OldRate) {
				t.Fatalf("tick %d: a %v event takes session %d from %d to %d (%s)", tick, e.Type, e.Session, e.OldRate, e.NewRate, e.Rule)
			}
			named[e.Session] = true
		}
	}
	if stage {
		return
	}
	for _, i := range moved {
		if !first && !named[int(i)] {
			t.Fatalf("tick %d: session %d's rate moved with no renegotiation event (events %v)", tick, i, events)
		}
		delete(named, int(i))
	}
	for i := range named {
		t.Fatalf("tick %d: session %d renegotiated with no net rate change and no stage event (events %v)", tick, i, events)
	}
}

func firstDiff(a, b []obs.Event) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestRatesActiveAllocatesNothing: once its scratch has grown, a round of
// any of the three policies makes no garbage — called through Rates with
// the caller keeping the queues, called through RatesActive with the
// caller keeping the applied vector too, and called the way the
// simulator and the gateway call it: by sim.Slots.Step, through the
// sim.SparseAllocator interface, on the kernel's own lists, queues and
// rates.
func TestRatesActiveAllocatesNothing(t *testing.T) {
	const (
		k  = 256
		do = bw.Tick(8)
	)
	for _, oc := range oracleCases(do) {
		for _, entry := range []string{"Rates", "RatesActive", "Slots.Step"} {
			p := oc.build(k, 16, false)
			p.alloc.(obs.Observable).SetObserver(nil)
			src := rng.New(7)
			arrived := make([]bw.Bits, k)
			queued := make([]bw.Bits, k)
			applied := make([]bw.Rate, k)
			var in sim.Compact
			slots := sim.NewSlots(k)
			var r sim.Round
			tick := bw.Tick(0)
			round := func() {
				oracleTrace("bursty", src, arrived, tick, do, 16)
				switch entry {
				case "Rates":
					for i, a := range arrived {
						queued[i] += a
					}
					for i, r := range p.alloc.Rates(tick, arrived, queued) {
						queued[i] -= bw.Min(queued[i], r)
					}
				case "RatesActive":
					for i, a := range arrived {
						queued[i] += a
					}
					sessions, bits := in.Collect(arrived)
					changed, rates := p.alloc.(sim.SparseAllocator).RatesActive(tick, sessions, bits, applied)
					for j, i := range changed {
						applied[i] = rates[j]
					}
					for i, r := range applied {
						queued[i] -= bw.Min(queued[i], r)
					}
				default:
					for i, a := range arrived {
						slots.Add(i, a)
					}
					if err := slots.Step(tick, p.alloc.(sim.SparseAllocator), &r); err != nil {
						t.Fatal(err)
					}
				}
				tick++
			}
			for tick < 400*do { // long enough for every scratch list, and every queue's ring, to reach its peak
				round()
			}
			if avg := testing.AllocsPerRun(int(12*do), round); avg != 0 {
				t.Errorf("%s through %s: %.2f allocations per round on warmed scratch, want 0", oc.name, entry, avg)
			}
		}
	}
}

// TestReduceWheel pins the wheel's contract: a REDUCE matures D_O ticks
// after it was added, in session order, with one session's entries
// merged.
func TestReduceWheel(t *testing.T) {
	w := newReduceWheel(4)
	w.add(5, 10, 4)
	w.add(9, 1, 4)
	w.add(2, 7, 4) // out of order: a second, stage-ending pass
	w.add(5, 3, 4)
	w.add(1, 8, 5)
	if got := w.take(3); len(got) != 0 {
		t.Errorf("tick 3 matured %v", got)
	}
	want := []reduction{{2, 7}, {5, 13}, {9, 1}}
	if got := w.take(4); !slices.Equal(got, want) {
		t.Errorf("tick 4 matured %v, want %v", got, want)
	}
	w.add(3, 2, 8) // the bucket tick 4 emptied, one turn later
	if got := w.take(5); !slices.Equal(got, []reduction{{1, 8}}) {
		t.Errorf("tick 5 matured %v", got)
	}
	for tick := bw.Tick(6); tick < 8; tick++ {
		if got := w.take(tick); len(got) != 0 {
			t.Errorf("tick %d matured %v", tick, got)
		}
	}
	if got := w.take(8); !slices.Equal(got, []reduction{{3, 2}}) {
		t.Errorf("tick 8 matured %v", got)
	}
}
