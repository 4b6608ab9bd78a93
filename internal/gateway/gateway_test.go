package gateway

import (
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/sim"
)

// manualTicks drives the gateway deterministically. Sending on the
// channel blocks until the tick loop consumes it, and the tick loop holds
// the gateway mutex for the whole tick, so after `ch <- x` returns the
// previous tick is either done or in progress; a second tick guarantees
// the first completed.
type manualTicks struct {
	ch chan time.Time
}

func newManualTicks() *manualTicks { return &manualTicks{ch: make(chan time.Time)} }

func (m *manualTicks) tick() { m.ch <- time.Time{} }

// waitRounds blocks until the gateway has completed n rounds. A tick()
// only says the round before it has; where the test goes on to CLOSE
// sessions with bits queued, whether the last round served them or the
// CLOSE dropped them must not be left to the scheduler.
func waitRounds(g *Gateway, n int64) {
	for g.now.Load() < n {
		time.Sleep(50 * time.Microsecond)
	}
}

func startGateway(t *testing.T, k int) (*Gateway, *manualTicks) {
	t.Helper()
	p := core.MultiParams{K: k, BO: bw.Rate(16 * k), DO: 4}
	alloc := core.MustNewPhased(p)
	ticks := newManualTicks()
	g, err := NewWithConfig(Config{Addr: "127.0.0.1:0", Slots: k, Alloc: alloc, Ticks: ticks.ch})
	if err != nil {
		t.Fatal(err)
	}
	return g, ticks
}

// dialOpen connects to a gateway and opens one session on a Mux of its
// own; a refused OPEN closes the Mux.
func dialOpen(addr string, timeout time.Duration) (*Mux, uint32, error) {
	m, err := DialMux(addr, timeout)
	if err != nil {
		return nil, 0, err
	}
	id, err := m.Open()
	if err != nil {
		m.Close()
		return nil, 0, err
	}
	return m, id, nil
}

func TestNewValidation(t *testing.T) {
	ch := make(chan time.Time)
	if _, err := NewWithConfig(Config{Addr: "127.0.0.1:0", Slots: 0, Ticks: ch}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewWithConfig(Config{Addr: "127.0.0.1:0", Slots: 2, Ticks: ch}); err == nil {
		t.Error("nil allocator accepted")
	}
	p := core.MultiParams{K: 2, BO: 32, DO: 4}
	if _, err := NewWithConfig(Config{Addr: "127.0.0.1:0", Slots: 2, Alloc: core.MustNewPhased(p)}); err == nil {
		t.Error("nil ticks accepted")
	}
}

func TestSessionLifecycle(t *testing.T) {
	g, ticks := startGateway(t, 2)
	c, cID, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(cID, 64); err != nil {
		t.Fatal(err)
	}
	// Stats round-trips through the same connection, so the DATA message
	// is guaranteed processed before the STATS request.
	if _, err := c.Stats(cID); err != nil {
		t.Fatal(err)
	}
	// Run enough ticks for the phased algorithm to serve 64 bits.
	for i := 0; i < 40; i++ {
		ticks.tick()
	}
	st, err := c.Stats(cID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Served+st.Queued != 64 {
		t.Errorf("served %d + queued %d != 64", st.Served, st.Queued)
	}
	c.CloseSession(cID)
	c.Close()
	stats := g.Close()
	if stats.Served+stats.Queued+stats.Closed != 64 {
		t.Errorf("gateway accounting: %+v", stats)
	}
	if stats.Ticks != 40 {
		t.Errorf("Ticks = %d, want 40", stats.Ticks)
	}
}

func TestSessionSlotsExhaustAndRecycle(t *testing.T) {
	g, _ := startGateway(t, 1)
	defer g.Close()

	first, _, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Second open must fail (the gateway drops the connection).
	if _, _, err := dialOpen(g.Addr(), time.Second); err == nil {
		t.Fatal("second session on a 1-slot gateway accepted")
	}
	first.Close()
	// The slot frees asynchronously when the handler notices the close;
	// retry briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, _, err := dialOpen(g.Addr(), time.Second)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never recycled after close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayServesMultipleSessionsWithDelayBound(t *testing.T) {
	const k = 3
	p := core.MultiParams{K: k, BO: 48, DO: 4}
	alloc := core.MustNewPhased(p)
	ticks := newManualTicks()
	g, err := NewWithConfig(Config{Addr: "127.0.0.1:0", Slots: k, Alloc: alloc, Ticks: ticks.ch})
	if err != nil {
		t.Fatal(err)
	}

	clients, ids := make([]*Mux, k), make([]uint32, k)
	for i := range clients {
		c, cID, err := dialOpen(g.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i], ids[i] = c, cID
	}
	// Bursty rounds: each client sends a small burst, then ticks pass.
	for round := 0; round < 20; round++ {
		for i, c := range clients {
			if err := c.Send(ids[i], bw.Bits(4+2*i)); err != nil {
				t.Fatal(err)
			}
		}
		// Synchronize: a stats round-trip per client guarantees the
		// DATA messages are queued before the next tick.
		for i, c := range clients {
			if _, err := c.Stats(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 4; j++ {
			ticks.tick()
		}
	}
	for i := 0; i < 60; i++ {
		ticks.tick()
	}
	stats := g.Close()
	if stats.Queued != 0 {
		t.Fatalf("gateway did not drain: %+v", stats)
	}
	// The phased algorithm's promise, plus the gateway's own tick: a
	// DATA lands between rounds and waits for the next one.
	const gatewayTick = 1
	pr := alloc.Promise()
	if limit := pr.DA + gatewayTick; stats.MaxDelay > limit {
		t.Errorf("max delay %d exceeds %d", stats.MaxDelay, limit)
	}
	if stats.MaxTotalRate > pr.BA {
		t.Errorf("total bandwidth %d exceeds %d", stats.MaxTotalRate, pr.BA)
	}
}

func TestClientSendValidation(t *testing.T) {
	g, _ := startGateway(t, 1)
	defer g.Close()
	c, cID, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(cID, -1); err == nil {
		t.Error("negative send accepted")
	}
}

var _ sim.MultiAllocator = (*core.Phased)(nil)
