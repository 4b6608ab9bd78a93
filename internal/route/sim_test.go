package route

import (
	"fmt"
	"reflect"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/sim"
	"dynbw/internal/traffic"
)

// testAlloc builds the standard per-link allocator used across the
// routing tests: the paper's phased k-session policy with B_O = the link
// capacity, as the routing experiments run it.
func testAlloc(k int, cap bw.Rate) (sim.SparseAllocator, error) {
	p, err := core.NewPhased(core.MultiParams{K: k, BO: cap, DO: 8})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func testConfig(r *Policy) Config {
	return Config{Router: r, Alloc: testAlloc}
}

func testWorkload(kind string) traffic.Churn {
	return traffic.Churn{
		Seed:     42,
		Horizon:  512,
		MeanGap:  4,
		MeanHold: 32,
		Rate:     8,
		Traffic:  kind,
	}
}

func TestRunDeterministic(t *testing.T) {
	for _, kind := range []string{"cbr", "mmpp", "heavytail"} {
		t.Run(kind, func(t *testing.T) {
			caps := Uniform(4, 64)
			a, err := Run(testWorkload(kind), testConfig(NewP2C(caps, 7)))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(testWorkload(kind), testConfig(NewP2C(caps, 7)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
			}
			if a.Offered == 0 || a.Placed == 0 {
				t.Fatalf("degenerate run: %+v", a)
			}
			if a.Offered != a.Placed+a.Blocked {
				t.Fatalf("offered %d != placed %d + blocked %d", a.Offered, a.Placed, a.Blocked)
			}
			if a.TotalCost != a.Changes+a.Reroutes {
				t.Fatalf("total cost %d != changes %d + reroutes %d", a.TotalCost, a.Changes, a.Reroutes)
			}
		})
	}
}

func TestRunOverloadBlocksGreedyLeastOften(t *testing.T) {
	// Overloaded regime: offered nominal load well above total capacity.
	w := traffic.Churn{Seed: 9, Horizon: 1024, MeanGap: 2, MeanHold: 64, Rate: 16, Traffic: "cbr"}
	caps := Uniform(4, 64)
	blocked := map[string]int{}
	for _, r := range []*Policy{NewGreedy(caps), NewDAR(caps, 16, 3), NewP2C(caps, 3)} {
		res, err := Run(w, testConfig(r))
		if err != nil {
			t.Fatal(err)
		}
		if res.Blocked == 0 {
			t.Fatalf("%s: overloaded run blocked nobody", r.Name())
		}
		blocked[r.Name()] = res.Blocked
	}
	// Greedy sees every link, so it never blocks a session another
	// policy could have placed under the same admission rule.
	if blocked["greedy"] > blocked["p2c"] || blocked["greedy"] > blocked["dar"] {
		t.Fatalf("greedy blocked most: %v", blocked)
	}
}

func TestRunRebalanceCountsReroutes(t *testing.T) {
	caps := Uniform(4, 64)
	w := testWorkload("mmpp")
	still, err := Run(w, testConfig(NewDAR(caps, 8, 5)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(NewDAR(caps, 8, 5))
	cfg.RebalanceEvery = 16
	cfg.RebalanceLimit = 2
	moved, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if still.Reroutes != 0 {
		t.Fatalf("no-rebalance run recorded %d reroutes", still.Reroutes)
	}
	if moved.Reroutes == 0 {
		t.Fatal("rebalancing run recorded no reroutes")
	}
	if moved.TotalCost != moved.Changes+moved.Reroutes {
		t.Fatalf("total cost %d != %d + %d", moved.TotalCost, moved.Changes, moved.Reroutes)
	}
}

func TestRunValidation(t *testing.T) {
	caps := Uniform(2, 64)
	if _, err := Run(testWorkload("cbr"), Config{Alloc: testAlloc}); err == nil {
		t.Fatal("nil router accepted")
	}
	if _, err := Run(testWorkload("cbr"), Config{Router: NewGreedy(caps)}); err == nil {
		t.Fatal("nil allocator accepted")
	}
	if _, err := Run(testWorkload("nope"), testConfig(NewGreedy(caps))); err == nil {
		t.Fatal("unknown traffic accepted")
	}
	bad := testWorkload("cbr")
	bad.MeanGap = 0
	if _, err := Run(bad, testConfig(NewGreedy(caps))); err == nil {
		t.Fatal("zero mean gap accepted")
	}
	busy := NewGreedy(caps)
	busy.Place(Session{ID: 0, Rate: 1})
	if _, err := Run(testWorkload("cbr"), testConfig(busy)); err == nil {
		t.Fatal("router with load on it accepted")
	}
}

// TestRunConservesBits: every bit a session emits on a link is served
// there or departs with its session, moved backlogs included, and the
// two-level cost is the links' changes plus the reroutes.
func TestRunConservesBits(t *testing.T) {
	caps := Uniform(4, 64)
	for _, kind := range []string{"cbr", "mmpp", "heavytail"} {
		for _, r := range []func() *Policy{
			func() *Policy { return NewGreedy(caps) },
			func() *Policy { return NewDAR(caps, 8, 5) },
			func() *Policy { return NewP2C(caps, 7) },
		} {
			for _, every := range []bw.Tick{0, 16} {
				cfg := testConfig(r())
				cfg.RebalanceEvery, cfg.RebalanceLimit = every, 2
				t.Run(fmt.Sprintf("%s/%s/every=%d", kind, cfg.Router.Name(), every), func(t *testing.T) {
					res, err := Run(testWorkload(kind), cfg)
					if err != nil {
						t.Fatal(err)
					}
					var routed bw.Bits
					for _, b := range res.LinkBits {
						routed += b
					}
					if routed == 0 || routed != res.Served+res.Dropped {
						t.Errorf("links got %d bits; served %d + dropped %d = %d", routed, res.Served, res.Dropped, res.Served+res.Dropped)
					}
					if res.TotalCost != res.Changes+res.Reroutes {
						t.Errorf("total cost %d != changes %d + reroutes %d", res.TotalCost, res.Changes, res.Reroutes)
					}
				})
			}
		}
	}
}

// fixedRate holds every slot of its link at one rate.
type fixedRate struct {
	rate    bw.Rate
	changed []int32
	rates   []bw.Rate
}

func (f *fixedRate) RatesActive(_ bw.Tick, _ []int32, _ []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	f.changed, f.rates = f.changed[:0], f.rates[:0]
	for i, r := range applied {
		if r != f.rate {
			f.changed = append(f.changed, int32(i))
			f.rates = append(f.rates, f.rate)
		}
	}
	return f.changed, f.rates
}

// TestRerouteCarriesBacklogAge: a reroute hands the session's backlog to
// the new link, whose queue stamps it as arriving at the move, so the
// move carries the age the backlog's oldest bit had. Session A's 5 bits
// arrive at tick 1 on link 0, which serves nothing; B fills link 1 until
// C has joined A on link 0, and leaves. The rebalance at tick 16 moves A
// to link 1, which serves a bit a tick: the last moved bit waited 15
// ticks before the move and 4 after it. Either A stays until its backlog
// is served, or it departs with 2 bits still queued.
func TestRerouteCarriesBacklogAge(t *testing.T) {
	const held, move = 15, 16
	for _, tc := range []struct {
		name    string
		end     bw.Tick
		wait    bw.Tick
		dropped bw.Bits
	}{
		{"served", 60, 4, 0},
		{"departs-mid-drain", move + 3, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			session := func(arr, end bw.Tick, first bw.Bits) traffic.Session {
				bits := make([]bw.Bits, end-arr)
				bits[0] = first
				return traffic.Session{Arr: arr, End: end, Bits: bits}
			}
			sessions := []traffic.Session{session(1, tc.end, 5), session(2, 4, 0), session(3, 60, 0)}
			var links int
			cfg := Config{
				Router: NewGreedy(Uniform(2, 16)),
				Alloc: func(int, bw.Rate) (sim.SparseAllocator, error) {
					links++
					return &fixedRate{rate: bw.Rate(links - 1)}, nil // link 0 stalls, link 1 serves 1
				},
				RebalanceEvery: move,
			}
			res, err := run(sessions, 8, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reroutes != 1 {
				t.Fatalf("%d reroutes, want A's one", res.Reroutes)
			}
			if want := held + tc.wait; res.MaxDelay != want {
				t.Errorf("max delay %d, want %d: %d ticks on link 0 and %d on link 1", res.MaxDelay, want, held, tc.wait)
			}
			if res.Served != 5-tc.dropped || res.Dropped != tc.dropped || res.LinkBits[0] != 5 || res.LinkBits[1] != 0 {
				t.Errorf("served %d, dropped %d, link bits %v; want %d, %d, [5 0]", res.Served, res.Dropped, res.LinkBits, 5-tc.dropped, tc.dropped)
			}
		})
	}
}
