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

// A router places each OPEN on a shard: the links it routes over are the
// gateway's shards.

// linkAllocs builds one phased allocator per shard, each over m slots.
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
			Shards:      2,
			Router:      route.NewGreedy(route.Uniform(2, 2)),
			ShardAllocs: linkAllocs(t, 2, 2),
			Ticks:       ticks.ch,
		}
	}
	ok, err := NewWithConfig(base())
	if err != nil {
		t.Fatalf("valid routed config rejected: %v", err)
	}
	ok.Close()

	cfg := base()
	cfg.Slots = 5 // not divisible by 2 shards
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("indivisible slot count accepted")
	}
	cfg = base()
	cfg.Shards = 0 // one shard under a router over two
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("router over more links than shards accepted")
	}
	cfg = base()
	cfg.Router = route.NewGreedy(route.Uniform(3, 2)) // K mismatch
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("router/shards mismatch accepted")
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
		Shards:      links,
		Router:      router,
		ShardAllocs: linkAllocs(t, links, m),
		Ticks:       ticks.ch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	clients, ids := make([]*Mux, links*m), make([]uint32, links*m)
	live := make(map[uint32]int)
	for i := range clients {
		c, cID, err := dialOpen(g.Addr(), time.Second)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		clients[i], ids[i] = c, cID
		if j, dup := live[cID]; dup {
			t.Fatalf("sessions %d and %d are both live under wire ID %#x", j, i, cID)
		}
		live[cID] = i
	}
	// Greedy spreads unit sessions evenly.
	for l := route.LinkID(0); l < links; l++ {
		if n := router.SessionsOf(l); n != m {
			t.Fatalf("link %d holds %d sessions, want %d", l, n, m)
		}
	}
	// Each link's reservations are its shard's open slots.
	for l := route.LinkID(0); l < links; l++ {
		if n, open := router.SessionsOf(l), g.shards[l].openCount(); int64(n) != open {
			t.Fatalf("link %d: the router holds %d sessions, its shard %d", l, n, open)
		}
	}
	// Capacity exhausted: the next OPEN fails.
	if _, _, err := dialOpen(g.Addr(), time.Second); err == nil {
		t.Fatal("open beyond capacity accepted")
	}

	// Traffic round-trips through whichever shard the session landed on.
	if err := clients[3].Send(ids[3], 48); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[3].Stats(ids[3]); err != nil { // barrier: DATA processed
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		ticks.tick()
	}
	st, err := clients[3].Stats(ids[3])
	if err != nil {
		t.Fatal(err)
	}
	if st.Served+st.Queued != 48 {
		t.Fatalf("served %d + queued %d != 48", st.Served, st.Queued)
	}

	// Closing frees both the slot and the router reservation; the session
	// that takes them gets an ID no session before it had, the closed one
	// included.
	if err := clients[0].CloseSession(ids[0]); err != nil {
		t.Fatal(err)
	}
	clients[0].Close()
	c, cID, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if j, used := live[cID]; used {
		t.Fatalf("reopened session got wire ID %#x, which session %d had", cID, j)
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

// TestRoutedOpenFailsOnAFullShard: a router that admits more sessions
// than a shard has slots sends an OPEN to a full shard. The OPEN fails
// with the session limit and leaves no reservation behind.
func TestRoutedOpenFailsOnAFullShard(t *testing.T) {
	g := newGateway(4, 2)
	for _, sh := range g.shards {
		sh.alloc = perSlotAlloc(sh.slots.Len(), 4)
	}
	router := route.NewGreedy(route.Uniform(2, 3)) // room for 3 a shard, 2 slots
	g.router = router
	for i := 0; i < 4; i++ {
		if _, err := g.openSession(0, 1); err != nil {
			t.Fatalf("OPEN %d: %v", i, err)
		}
	}
	if _, err := g.openSession(0, 1); err != ErrSessionLimit {
		t.Fatalf("OPEN onto a full shard = %v, want ErrSessionLimit", err)
	}
	if n := router.SessionsOf(0) + router.SessionsOf(1); n != 4 {
		t.Errorf("the router holds %d reservations after the failed OPEN, want 4", n)
	}
}
