package gateway

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/rng"
	"dynbw/internal/route"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
	"dynbw/internal/traffic"
)

// paperPolicy is one of the paper's multi-session policies, which
// implement both forms.
type paperPolicy interface {
	sim.MultiAllocator
	sim.SparseAllocator
}

// newPolicy builds one of the paper's multi-session policies the way
// load.NewPolicy does (which this package cannot import).
func newPolicy(t testing.TB, name string, k int, bo bw.Rate, do bw.Tick) paperPolicy {
	t.Helper()
	var (
		a   paperPolicy
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
// allocator per contiguous slot range, each told of its range's arrivals
// and its range's applied rates, its changes moved back to table
// indices.
type partitioned struct {
	parts   []sim.SparseAllocator
	local   []int32
	changed []int32
	rates   []bw.Rate
}

func (p *partitioned) RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	m := len(applied) / len(p.parts)
	p.changed, p.rates = p.changed[:0], p.rates[:0]
	j := 0
	for n, a := range p.parts {
		base := int32(n * m)
		p.local = p.local[:0]
		for ; j < len(arrived) && arrived[j] < base+int32(m); j++ {
			p.local = append(p.local, arrived[j]-base)
		}
		changed, rates := a.RatesActive(t, p.local, bits[j-len(p.local):j], applied[base:base+int32(m)])
		for x, i := range changed {
			p.changed = append(p.changed, base+i)
			p.rates = append(p.rates, rates[x])
		}
	}
	return p.changed, p.rates
}

// Rates is there for sim.RunMulti's parameter type; the kernel runs
// RatesActive alone.
func (p *partitioned) Rates(bw.Tick, []bw.Bits, []bw.Bits) []bw.Rate {
	panic("partitioned: dense entry")
}

// feed hands slot i of a bare gateway the bits that arrived for it, as a
// DATA message would.
func feed(g *Gateway, id int, bits bw.Bits) {
	if bits == 0 {
		return
	}
	sh := g.shardOf(id)
	sh.mu.Lock()
	sh.slots.Add(sh.slot(id), bits)
	sh.work.Add(1)
	sh.mu.Unlock()
}

// TestGatewayMatchesSimulator is the differential test the shared kernel
// makes cheap: one seeded multi-session trace goes tick by tick into a
// bare gateway's slot table and, whole, into sim.RunMulti with an
// identically constructed policy. Every per-session number a client can
// read and every total Close() reports must equal the simulator's —
// unsharded, with the table split over four shards, and on four shards
// a p2c router placed the sessions on: three quarters of the slots are
// opened through it, and the simulator runs the same partition with the
// other slots silent.
//
// Three traces: on/off sources on every session of a small table; a
// table of 400 where each D_O cycle a rotating 1 % of the sessions
// bursts and the rest idle — the regime the active set exists for, in
// which a slot the round skipped must come out exactly as if visited;
// and a table of 1600 whose rounds cross the inline threshold both ways,
// twice: every session bursts at once, the backlog drains, a trickle
// follows, and then the same again. On four shards the first rounds after
// a burst fan out to the tick workers and the trickle's run on the tick
// loop — the path counters must show both — and the numbers must not
// know which path served them. Before every round of that trace each
// shard's work estimate is checked against a walk over its slots: it may
// never be below the number of slots the round is about to visit. That
// holds across a CLOSE too: session 0, drained, is handed a few more bits
// and closed before any round sees them, which takes a slot out of the
// active set that the estimate has already counted.
func TestGatewayMatchesSimulator(t *testing.T) {
	const (
		share = bw.Rate(16)
		do    = bw.Tick(4)
	)
	onOff := func() *trace.Multi {
		sessions := make([]*trace.Trace, 16)
		for i := range sessions {
			src := traffic.OnOff{Seed: uint64(100 + i), PeakRate: 3 * share, MeanOn: 3, MeanOff: 9}
			sessions[i] = traffic.ClampTrace(src.Generate(300), share, do)
		}
		return trace.MustNewMulti(sessions)
	}
	rotating := func() *trace.Multi {
		const k, cycles = 400, 250
		src := rng.New(9)
		arrivals := make([][]bw.Bits, k)
		for i := range arrivals {
			arrivals[i] = make([]bw.Bits, cycles*do)
		}
		for c := 0; c < cycles; c++ {
			for i := c % 100; i < k; i += 100 {
				// Up to three phases' worth of the share: some bursts a
				// share drains in time, some force a raise.
				arrivals[i][bw.Tick(c)*do] = 1 + src.Int64n(3*bw.Volume(share, do))
			}
		}
		sessions := make([]*trace.Trace, k)
		for i := range sessions {
			sessions[i] = trace.MustNew(arrivals[i])
		}
		return trace.MustNewMulti(sessions)
	}

	const closeAt, closeDrops = 20 * do, bw.Bits(5) // the crossing trace's CLOSE: mid-trickle, bits pending
	crossing := func() *trace.Multi {
		const k, cycles = 1600, 64
		src := rng.New(21)
		arrivals := make([][]bw.Bits, k)
		for i := range arrivals {
			arrivals[i] = make([]bw.Bits, cycles*do)
		}
		for _, burst := range []int{0, 32} {
			for i := range arrivals {
				arrivals[i][bw.Tick(burst)*do] = 1 + src.Int64n(3*bw.Volume(share, do))
			}
			for c := burst + 8; c < burst+32; c++ {
				for i := c % 100; i < k; i += 100 {
					arrivals[i][bw.Tick(c)*do] = 1 + src.Int64n(2*bw.Volume(share, do))
				}
			}
		}
		clear(arrivals[0][1:]) // session 0 ends at closeAt, long drained
		sessions := make([]*trace.Trace, k)
		for i := range sessions {
			sessions[i] = trace.MustNew(arrivals[i])
		}
		return trace.MustNewMulti(sessions)
	}

	// Every trace runs on one shard and on four. The on/off and rotating
	// ones also run on four shards a p2c router places their sessions on.
	// The on/off sessions are clamped to their shares, so whatever the
	// placement, every shard's input is one its policy's B_O serves. The
	// rotating bursts, so placed, end combined's global stages on ticks
	// with arrivals, whose bits must drain like any others.
	type row struct {
		nshards int
		variant string
		routed  bool
	}
	plain := []row{{nshards: 1}, {nshards: 4}}
	for _, tc := range []struct {
		suffix   string
		m        *trace.Multi
		crossing bool
		rows     []row
	}{
		{"", onOff(), false, append(plain, row{4, "/p2c", true})},
		{"-rotating-1pct", rotating(), false, append(plain, row{4, "/p2c", true})},
		{"-crossing", crossing(), true, plain},
	} {
		k := tc.m.K()
		for _, policy := range []string{"phased", "continuous", "combined"} {
			for _, r := range tc.rows {
				nshards := r.nshards
				t.Run(fmt.Sprintf("%s%s/shards=%d%s", policy, tc.suffix, nshards, r.variant), func(t *testing.T) {
					per := k / nshards
					parts := make([]sim.SparseAllocator, nshards)
					for i := range parts {
						parts[i] = newPolicy(t, policy, per, bw.Rate(per)*share, do)
					}
					g := newRounds(t, policy, k, nshards, do) // the same policies as parts
					m := tc.m
					if r.routed {
						m = routeSessions(t, g, m)
					}
					res, err := sim.RunMulti(m, &partitioned{parts: parts}, sim.Options{})
					if err != nil {
						t.Fatal(err)
					}

					closing := -1
					if tc.crossing {
						var err error
						if closing, err = g.openSession(0, 1); err != nil || closing != 0 {
							t.Fatalf("OPEN on an empty table = %d, %v", closing, err)
						}
					}
					// Exactly as many rounds as the simulator ran: it stops at
					// the first tick past the trace that finds every queue empty.
					for tick := bw.Tick(0); tick < res.Total.Len(); tick++ {
						for i := 0; i < k; i++ {
							feed(g, i, m.Session(i).At(tick))
						}
						if tc.crossing && tick == closeAt {
							feed(g, closing, closeDrops)
							g.releaseSession(closing)
						}
						for _, sh := range g.shards {
							if !tc.crossing {
								break
							}
							visits := int64(0)
							for i := 0; i < sh.slots.Len(); i++ {
								if sh.slots.Pending(i) > 0 || sh.slots.Queue(i).Bits() > 0 {
									visits++
								}
							}
							if est := sh.work.Load(); est < visits {
								t.Fatalf("tick %d, shard %d: work estimate %d, the round will visit %d slots", tick, sh.idx, est, visits)
							}
						}
						g.round(tick)
						g.now.Add(1)
					}
					if in, out := g.m.roundsInline.Value(), g.m.roundsFanout.Value(); tc.crossing && nshards > 1 && (in == 0 || out == 0) {
						t.Errorf("%d rounds ran inline and %d fanned out; the trace is to cross the threshold", in, out)
					}

					for _, s := range g.Sessions() {
						i := s.Slot
						if i == closing {
							if past := g.shards[0].past; past.Served != m.Session(i).Total() || past.Dropped != closeDrops || s.Served != 0 || s.Queued != 0 {
								t.Errorf("closed session: %+v on the shard's books, slot %+v", past, s)
							}
							continue
						}
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
						Closed:         st.Closed, // checked above, against closeDrops
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
}

// TestGatewayMatchesRouteRun is TestGatewayMatchesSimulator with
// departures. One churn workload goes through route.Run and, tick by
// tick, through a bare gateway whose shards are route.Run's links: each
// OPEN through a router built as route.Run's, each session's bits through
// feed, each departure through releaseSession, then g.round. Both sides
// run a link as phased over its cap/Rate slots, so the changes, the bits
// served and dropped, the worst delay and the blocked OPENs must be
// equal. Both sides key the i-th OPEN i, so DAR picks the same home links.
func TestGatewayMatchesRouteRun(t *testing.T) {
	const (
		capacity = bw.Rate(64)
		rate     = bw.Rate(16)
		per      = int(capacity / rate)
		do       = bw.Tick(8)
	)
	// route.Run reserves rate per session, the gateway one slot: DAR's
	// trunk reservation is one session's worth on either side.
	router := func(t *testing.T, name string, n int, unit bw.Rate) *route.Policy {
		r, err := route.New(name, route.Uniform(n, bw.Rate(per)*unit), unit, 211)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	phased := func(k int, c bw.Rate) (sim.SparseAllocator, error) {
		p, err := core.NewPhased(core.MultiParams{K: k, BO: c, DO: do})
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	for _, name := range []string{"greedy", "p2c", "dar"} {
		for _, n := range []int{1, 4} {
			for _, kind := range []string{"mmpp", "heavytail"} {
				t.Run(fmt.Sprintf("%s/links=%d/%s", name, n, kind), func(t *testing.T) {
					// Offered nominal load a little above the links' capacity.
					w := traffic.Churn{Seed: 42, Horizon: 1024, MeanGap: 10 / float64(n), MeanHold: 48, Rate: rate, Traffic: kind}
					res, err := route.Run(w, route.Config{Router: router(t, name, n, rate), Alloc: phased})
					if err != nil {
						t.Fatal(err)
					}

					g := newRounds(t, "phased", n*per, n, do) // each shard phased, K = per, B_O = capacity
					g.router = router(t, name, n, 1)
					sessions, err := w.Sessions()
					if err != nil {
						t.Fatal(err)
					}
					var lastEnd bw.Tick
					for _, s := range sessions {
						lastEnd = max(lastEnd, s.End)
					}
					ids := make([]int, len(sessions)) // wire IDs of the opened sessions
					var active []int                  // opened sessions, in arrival order
					blocked, next := 0, 0
					for tick := bw.Tick(0); tick <= lastEnd; tick++ {
						keep := active[:0]
						for _, j := range active {
							if sessions[j].End > tick {
								keep = append(keep, j)
								continue
							}
							g.releaseSession(ids[j])
						}
						active = keep
						for ; next < len(sessions) && sessions[next].Arr == tick; next++ {
							id, err := g.openSession(0, 1)
							if errors.Is(err, ErrSessionLimit) {
								blocked++
								continue
							}
							if err != nil {
								t.Fatal(err)
							}
							ids[next] = id
							active = append(active, next)
						}
						for _, j := range active {
							feed(g, ids[j], sessions[j].Bits[tick-sessions[j].Arr])
						}
						g.round(tick)
						g.now.Add(1)
					}

					st := g.stats()
					if st.SessionChanges != res.Changes || st.Served != res.Served || st.Closed != res.Dropped ||
						st.MaxDelay != res.MaxDelay || blocked != res.Blocked || st.Queued != 0 {
						t.Errorf("gateway: %d changes, %d served, %d dropped, %d queued, max delay %d, %d blocked\n"+
							"route.Run: %d changes, %d served, %d dropped, max delay %d, %d blocked",
							st.SessionChanges, st.Served, st.Closed, st.Queued, st.MaxDelay, blocked,
							res.Changes, res.Served, res.Dropped, res.MaxDelay, res.Blocked)
					}
					if res.Changes == 0 || res.Dropped == 0 || res.Served == 0 || res.Blocked == 0 {
						t.Errorf("degenerate run, nothing compared: %+v", res)
					}
				})
			}
		}
	}
}

// routeSessions opens three quarters of a bare gateway's slots through a
// p2c router over its shards, the OPENs striped over the shards as
// connections are, and returns the trace that gives the j-th session to
// open m's session j, on whichever slot it landed; the other slots are
// silent. The router, not the stripe, must have decided: stripe-first
// would fill every shard to the same three quarters.
func routeSessions(t *testing.T, g *Gateway, m *trace.Multi) *trace.Multi {
	t.Helper()
	n := len(g.shards)
	g.router = route.NewP2C(route.Uniform(n, bw.Rate(g.spp)), 7)
	silent := trace.MustNew(make([]bw.Bits, m.Session(0).Len()))
	slots := make([]*trace.Trace, g.k)
	for i := range slots {
		slots[i] = silent
	}
	for j := 0; j < g.k*3/4; j++ {
		id, err := g.openSession(j%n, 1)
		if err != nil {
			t.Fatalf("routed OPEN %d: %v", j, err)
		}
		slots[id&g.indexMask] = m.Session(j)
	}
	even := true
	for _, sh := range g.shards {
		even = even && sh.openCount() == int64(g.spp*3/4)
	}
	if even {
		t.Fatal("every shard holds three quarters of its slots: the router placed as the stripe would")
	}
	return trace.MustNewMulti(slots)
}

// flipAlloc toggles every slot's rate each round, reporting all of them
// in retained lists: the worst case for any per-slot state that records
// changes.
type flipAlloc struct {
	changed []int32
	rates   []bw.Rate
}

func (a *flipAlloc) RatesActive(t bw.Tick, _ []int32, _ []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	a.changed, a.rates = a.changed[:0], a.rates[:0]
	for i := range applied {
		a.changed = append(a.changed, int32(i))
		a.rates = append(a.rates, 1+bw.Rate(t%2))
	}
	return a.changed, a.rates
}

// TestTickBoundedLiveState: a slot holds nothing that grows with uptime.
// With every session's rate changing on every tick and a bit arriving on
// every tick, a round on a warmed table allocates nothing, and after 50k
// rounds the table's live heap exceeds what it was freshly built by no
// more than the round's scratch: a few lists of one entry a busy slot.
// Two earlier layouts failed here: each change appending a segment to the
// slot's schedule, and each queue keeping a 128-chunk array (2 KB) for
// the one chunk it held between rounds.
func TestTickBoundedLiveState(t *testing.T) {
	const (
		k        = 256
		perSlotB = 64
	)
	g := newGateway(k, 1)
	sh := g.shards[0]
	sh.alloc = &flipAlloc{}
	fresh := liveHeap()
	tick := bw.Tick(0)
	round := func() {
		for i := 0; i < k; i++ {
			sh.slots.Add(i, 1)
		}
		sh.tick(tick)
		tick++
	}
	for tick < 1000 {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("shard.tick allocates %.2f objects per round on a warmed table, want 0", avg)
	}
	for tick < 50_000 {
		round()
	}
	grown := (float64(liveHeap()) - float64(fresh)) / k
	t.Logf("live heap %+.1f B a slot after 50k rounds", grown)
	if grown > perSlotB {
		t.Errorf("live heap grew %.1f B a slot over 50k rounds; want <= %d", grown, perSlotB)
	}
	if got := sh.slots.Changes(0); got != int(tick) {
		t.Errorf("slot 0 counts %d changes over %d flipping rounds", got, tick)
	}
	runtime.KeepAlive(g)
}

// TestCloseEmptiesSeparateQueue: a CLOSE tells a shard's sim.Separate
// that the session left, so the policy's first call for the slot's next
// tenant is handed that tenant's bits alone, not what the last one left
// queued.
func TestCloseEmptiesSeparateQueue(t *testing.T) {
	g := newBare(2)
	var seen [2]bw.Bits
	slow := sim.AllocatorFunc(func(_ bw.Tick, arrived, queued bw.Bits) bw.Rate {
		seen = [2]bw.Bits{arrived, queued}
		return 1
	})
	idle := sim.AllocatorFunc(func(bw.Tick, bw.Bits, bw.Bits) bw.Rate { return 0 })
	g.shards[0].alloc = &sim.Separate{Allocs: []sim.Allocator{slow, idle}}
	first, err := g.openSession(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	feed(g, first, 10)
	g.round(0)
	g.round(1)
	if seen != [2]bw.Bits{0, 9} {
		t.Fatalf("first tenant: policy handed arrived, queued %v, want [0 9]", seen)
	}
	g.releaseSession(first)
	next, err := g.openSession(0, 1)
	if err != nil || next&g.indexMask != first&g.indexMask {
		t.Fatalf("reopen = %d, %v; want slot %d", next, err, first&g.indexMask)
	}
	feed(g, next, 3)
	g.round(2)
	if seen != [2]bw.Bits{3, 3} {
		t.Errorf("next tenant's first call handed arrived, queued %v, want [3 3]", seen)
	}
}
