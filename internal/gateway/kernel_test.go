package gateway

import (
	"fmt"
	"runtime"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
	"dynbw/internal/traffic"
)

// newPolicy builds one of the paper's multi-session policies the way
// load.NewPolicy does (which this package cannot import).
func newPolicy(t *testing.T, name string, k int, bo bw.Rate, do bw.Tick) sim.MultiAllocator {
	t.Helper()
	var (
		a   sim.MultiAllocator
		err error
	)
	switch name {
	case "phased":
		a, err = core.NewPhased(core.MultiParams{K: k, BO: bo, DO: do})
	case "continuous":
		a, err = core.NewContinuous(core.MultiParams{K: k, BO: bo, DO: do})
	case "combined":
		a, err = core.NewCombined(core.CombinedParams{K: k, BA: bw.NextPow2(8 * bo), DO: do, UO: 0.5, W: 2 * do})
	default:
		t.Fatalf("unknown policy %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// partitioned is the simulator-side image of a sharded gateway: one
// allocator per contiguous slot range, their rates concatenated.
type partitioned struct {
	parts []sim.MultiAllocator
	rates []bw.Rate
}

func (p *partitioned) Rates(t bw.Tick, arrived, queued []bw.Bits) []bw.Rate {
	m := len(arrived) / len(p.parts)
	p.rates = p.rates[:0]
	for i, a := range p.parts {
		p.rates = append(p.rates, a.Rates(t, arrived[i*m:(i+1)*m], queued[i*m:(i+1)*m])...)
	}
	return p.rates
}

// TestGatewayMatchesSimulator is the differential test the shared kernel
// makes cheap: one seeded multi-session trace goes tick by tick into a
// bare gateway's slot table and, whole, into sim.RunMulti with an
// identically constructed policy. Every per-session number a client can
// read and every total Close() reports must equal the simulator's —
// unsharded, and with the table split over four shards (each session's
// trace is clamped to its own share, so every partition is balanced).
func TestGatewayMatchesSimulator(t *testing.T) {
	const (
		k     = 16
		share = bw.Rate(16)
		do    = bw.Tick(4)
		n     = bw.Tick(300)
	)
	sessions := make([]*trace.Trace, k)
	for i := range sessions {
		src := traffic.OnOff{Seed: uint64(100 + i), PeakRate: 3 * share, MeanOn: 3, MeanOff: 9}
		sessions[i] = traffic.ClampTrace(src.Generate(n), share, do)
	}
	m := trace.MustNewMulti(sessions)

	for _, policy := range []string{"phased", "continuous", "combined"} {
		for _, nshards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, nshards), func(t *testing.T) {
				per := k / nshards
				build := func() []sim.MultiAllocator {
					allocs := make([]sim.MultiAllocator, nshards)
					for i := range allocs {
						allocs[i] = newPolicy(t, policy, per, bw.Rate(per)*share, do)
					}
					return allocs
				}
				res, err := sim.RunMulti(m, &partitioned{parts: build()}, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}

				g := newGateway(k, nshards)
				for i, a := range build() {
					g.shards[i].allocs = []sim.MultiAllocator{a}
				}
				// Exactly as many rounds as the simulator ran: it stops at
				// the first tick past the trace that finds every queue empty.
				for tick := bw.Tick(0); tick < res.Total.Len(); tick++ {
					for i := 0; i < k; i++ {
						sh := g.shardOf(i)
						sh.mu.Lock()
						sh.pending[sh.slot(i)] += m.Session(i).At(tick)
						sh.mu.Unlock()
					}
					g.round(tick)
					g.now.Add(1)
				}

				for _, s := range g.Sessions() {
					i := s.Slot
					if want := m.Session(i).Total(); s.Served != want || s.Queued != 0 {
						t.Errorf("session %d: served %d queued %d, want %d/0", i, s.Served, s.Queued, want)
					}
					if want := res.Sessions[i].Changes(); s.Changes != want {
						t.Errorf("session %d: %d changes, simulator %d", i, s.Changes, want)
					}
					if want := res.SessionDelays[i]; s.MaxDelay != want {
						t.Errorf("session %d: max delay %d, simulator %d", i, s.MaxDelay, want)
					}
					if want := res.Sessions[i].At(res.Total.Len() - 1); s.Rate != want {
						t.Errorf("session %d: last rate %d, simulator %d", i, s.Rate, want)
					}
				}
				st := g.stats()
				want := Stats{
					Ticks:          res.Total.Len(),
					Served:         res.Delay.Served,
					SessionChanges: res.SessionChanges(),
					MaxTotalRate:   res.MaxTotalRate(),
					MaxDelay:       res.Delay.Max,
				}
				if st != want {
					t.Errorf("gateway stats %+v\nsimulator     %+v", st, want)
				}
				if st.SessionChanges == 0 || st.MaxDelay == 0 {
					t.Errorf("degenerate run, nothing compared: %+v", st)
				}
			})
		}
	}
}

// flipAlloc hands back one retained slice with every rate toggled each
// round: the worst case for any per-slot state that records changes.
type flipAlloc struct{ rates []bw.Rate }

func (a *flipAlloc) Rates(t bw.Tick, _, _ []bw.Bits) []bw.Rate {
	for i := range a.rates {
		a.rates[i] = 1 + bw.Rate(t%2)
	}
	return a.rates
}

// TestTickBoundedLiveState: a slot holds nothing that grows with uptime.
// With every session's rate changing on every tick (and a bit arriving
// on every tick), a round on a warmed table allocates nothing, and the
// table's live heap after 50k rounds is what it was after 1k. At the
// parent commit each change appended a segment to the slot's schedule.
func TestTickBoundedLiveState(t *testing.T) {
	const k = 64
	g := newGateway(k, 1)
	sh := g.shards[0]
	sh.allocs = []sim.MultiAllocator{&flipAlloc{rates: make([]bw.Rate, k)}}
	tick := bw.Tick(0)
	round := func() {
		for i := range sh.pending {
			sh.pending[i]++
		}
		sh.tick(tick)
		tick++
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for tick < 1000 {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("shard.tick allocates %.2f objects per round on a warmed table, want 0", avg)
	}
	warm := liveHeap()
	for tick < 50_000 {
		round()
	}
	const slack = 8 << 10
	if grown := liveHeap(); grown > warm+slack {
		t.Errorf("live heap grew from %d B on the warmed table to %d B after 50k rounds (slack %d B)", warm, grown, slack)
	}
	if got := sh.slots.Changes(0); got != int(tick) {
		t.Errorf("slot 0 counts %d changes over %d flipping rounds", got, tick)
	}
	runtime.KeepAlive(g)
}
