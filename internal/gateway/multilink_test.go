package gateway

import (
	"strings"
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/obs"
	"dynbw/internal/route"
	"dynbw/internal/sim"
)

// linkAllocs builds one phased allocator per link, each over m slots.
func linkAllocs(t *testing.T, links, m int) []sim.MultiAllocator {
	t.Helper()
	out := make([]sim.MultiAllocator, links)
	for i := range out {
		out[i] = core.MustNewPhased(core.MultiParams{K: m, BO: bw.Rate(16 * m), DO: 4})
	}
	return out
}

func TestMultiLinkValidation(t *testing.T) {
	ticks := newManualTicks()
	base := func() Config {
		return Config{
			Addr:        "127.0.0.1:0",
			Slots:       4,
			Links:       2,
			Router:      route.NewGreedy(route.Uniform(2, 2)),
			ShardAllocs: linkAllocs(t, 2, 2),
			Ticks:       ticks.ch,
		}
	}
	ok, err := NewWithConfig(base())
	if err != nil {
		t.Fatalf("valid multi-link config rejected: %v", err)
	}
	ok.Close()

	cfg := base()
	cfg.Slots = 5 // not divisible by 2 links
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("indivisible slot count accepted")
	}
	cfg = base()
	cfg.Router = nil
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("multi-link without router accepted")
	}
	cfg = base()
	cfg.Router = route.NewGreedy(route.Uniform(3, 2)) // K mismatch
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("router/links mismatch accepted")
	}
	cfg = base()
	cfg.ShardAllocs = cfg.ShardAllocs[:1]
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("short allocator list accepted")
	}
}

func TestMultiLinkLifecycle(t *testing.T) {
	const links, m = 2, 2
	router := route.NewGreedy(route.Uniform(links, m))
	reg := obs.NewRegistry()
	router.Instrument(reg)
	ticks := newManualTicks()
	g, err := NewWithConfig(Config{
		Addr:        "127.0.0.1:0",
		Slots:       links * m,
		Links:       links,
		Router:      router,
		ShardAllocs: linkAllocs(t, links, m),
		Ticks:       ticks.ch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	clients := make([]*Client, links*m)
	live := make(map[uint32]int)
	for i := range clients {
		c, err := DialSession(g.Addr(), time.Second)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		clients[i] = c
		if j, dup := live[c.Session()]; dup {
			t.Fatalf("sessions %d and %d are both live under wire ID %#x", j, i, c.Session())
		}
		live[c.Session()] = i
	}
	// Greedy spreads unit sessions evenly.
	for l := route.LinkID(0); l < links; l++ {
		if n := router.SessionsOf(l); n != m {
			t.Fatalf("link %d holds %d sessions, want %d", l, n, m)
		}
	}
	// Capacity exhausted: the next OPEN fails.
	if _, err := DialSession(g.Addr(), time.Second); err == nil {
		t.Fatal("open beyond capacity accepted")
	}

	// Traffic round-trips through whichever slot the session landed on.
	if err := clients[3].Send(48); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[3].Stats(); err != nil { // barrier: DATA processed
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		ticks.tick()
	}
	st, err := clients[3].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Served+st.Queued != 48 {
		t.Fatalf("served %d + queued %d != 48", st.Served, st.Queued)
	}

	// Closing frees both the slot and the router reservation; the session
	// that takes them gets an ID no session before it had, the closed one
	// included.
	if err := clients[0].Close(); err != nil {
		t.Fatal(err)
	}
	c, err := DialSession(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if j, used := live[c.Session()]; used {
		t.Fatalf("reopened session got wire ID %#x, which session %d had", c.Session(), j)
	}
	c.Close()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `dynbw_route_placements_total{policy="greedy"} 5`) {
		t.Fatalf("placements counter missing or wrong:\n%s", text)
	}
	if !strings.Contains(text, `dynbw_route_blocked_total{policy="greedy"} 1`) {
		t.Fatalf("blocked counter missing or wrong:\n%s", text)
	}
}

func TestMultiLinkRebalanceMigratesSession(t *testing.T) {
	const links, m = 2, 4
	router := route.NewGreedy(route.Uniform(links, m))
	reg := obs.NewRegistry()
	router.Instrument(reg)
	ticks := newManualTicks()
	g, err := NewWithConfig(Config{
		Addr:           "127.0.0.1:0",
		Slots:          links * m,
		Links:          links,
		Router:         router,
		ShardAllocs:    linkAllocs(t, links, m),
		Ticks:          ticks.ch,
		RebalanceEvery: 8,
		RebalanceLimit: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Fill both links (greedy alternates 0,1,0,1,...), then close the
	// three even-ID sessions on link 1 so link 0 holds 4 and link 1
	// holds 1 — enough imbalance that a unit-rate move strictly shrinks
	// the spread.
	clients := make([]*Client, links*m)
	for i := range clients {
		c, err := DialSession(g.Addr(), time.Second)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		clients[i] = c
	}
	for _, i := range []int{1, 3, 5} {
		if err := clients[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	if router.SessionsOf(0) != 4 || router.SessionsOf(1) != 1 {
		t.Fatalf("setup: link loads %d/%d, want 4/1",
			router.SessionsOf(0), router.SessionsOf(1))
	}

	// Give session 0 state for the migration to carry: a history of rate
	// changes longer than any idle slot's, then a fresh burst.
	if err := clients[0].Send(512); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[0].Stats(); err != nil { // barrier: DATA processed
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // t=0..6 complete, t=7 at worst in progress: no rebalance yet
		ticks.tick()
	}
	before, err := clients[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if router.Where(0) != 0 {
		t.Fatalf("session 0 already on link %d before the rebalance tick", router.Where(0))
	}
	if before.Changes < 2 {
		t.Fatalf("setup: session 0 has %d changes before the move, want a history", before.Changes)
	}
	if err := clients[0].Send(64); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[0].Stats(); err != nil { // barrier: DATA processed
		t.Fatal(err)
	}
	ticks.tick() // t=8: rebalance fires
	ticks.tick() // barrier: t=8 fully applied

	if router.Where(0) != 1 {
		t.Fatalf("session 0 on link %d after rebalance, want 1", router.Where(0))
	}
	// The wire session keeps working from its new slot, with its queue
	// accounting and its change history intact.
	st, err := clients[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Served+st.Queued != 512+64 {
		t.Fatalf("after migration: served %d + queued %d != %d", st.Served, st.Queued, 512+64)
	}
	if st.Changes < before.Changes {
		t.Fatalf("changes went backwards across the migration: %d before, %d after", before.Changes, st.Changes)
	}
	found := false
	for _, s := range g.Sessions() {
		if s.Ext == 0 {
			found = true
			if s.Link != 1 {
				t.Fatalf("session 0 reported on link %d, want 1", s.Link)
			}
			if int64(s.Changes) < before.Changes {
				t.Fatalf("/sessions changes went backwards across the migration: %d before, %d now", before.Changes, s.Changes)
			}
		}
	}
	if !found {
		t.Fatal("session 0 missing from Sessions()")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `dynbw_route_reroutes_total{policy="greedy"} 1`) {
		t.Fatalf("reroutes counter missing or wrong:\n%s", sb.String())
	}
}
