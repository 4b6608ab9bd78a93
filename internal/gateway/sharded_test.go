package gateway

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/route"
	"dynbw/internal/sim"
)

// perSlotAlloc serves each of n slots independently at up to cap per
// tick — a sim.Separate over one stateless policy, so a slot's rate
// depends only on its own queue and partitioning the slot table across
// shards cannot change any slot's trace. That makes it the reference
// allocator for sharded-vs-unsharded equivalence tests.
func perSlotAlloc(n int, cap bw.Rate) *sim.Separate {
	serve := sim.AllocatorFunc(func(_ bw.Tick, _, queued bw.Bits) bw.Rate { return min(bw.Rate(queued), cap) })
	allocs := make([]sim.Allocator, n)
	for i := range allocs {
		allocs[i] = serve
	}
	return &sim.Separate{Allocs: allocs}
}

// perSlotAllocs is the allocator list of k slots over n shards, a
// perSlotAlloc on each.
func perSlotAllocs(n, k int, perSlotCap bw.Rate) []sim.MultiAllocator {
	allocs := make([]sim.MultiAllocator, n)
	for i := range allocs {
		allocs[i] = perSlotAlloc(k/n, perSlotCap)
	}
	return allocs
}

// startSharded launches a gateway with k slots over nshards shards (one
// shard is a one-element list, not another config) using perSlotAlloc
// everywhere.
func startSharded(t *testing.T, k, nshards int, perSlotCap bw.Rate) (*Gateway, *manualTicks) {
	t.Helper()
	ticks := newManualTicks()
	g, err := NewWithConfig(Config{
		Addr: "127.0.0.1:0", Slots: k, Ticks: ticks.ch,
		Shards: nshards, ShardAllocs: perSlotAllocs(nshards, k, perSlotCap),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, ticks
}

// denseOnly hides an allocator's sparse form.
type denseOnly struct{ sim.MultiAllocator }

func TestShardedConfigValidation(t *testing.T) {
	ch := make(chan time.Time)
	base := Config{Addr: "127.0.0.1:0", Slots: 8, Ticks: ch}
	alloc := func(n int) sim.MultiAllocator { return perSlotAlloc(n, 8) }

	cfg := base
	cfg.Shards = 3
	cfg.ShardAllocs = []sim.MultiAllocator{alloc(2), alloc(2), alloc(2)}
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("8 slots over 3 shards accepted")
	}
	cfg = base
	cfg.Shards = 4
	cfg.ShardAllocs = []sim.MultiAllocator{alloc(2)}
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("1 allocator for 4 shards accepted")
	}
	cfg = base
	cfg.Shards = 2
	cfg.ShardAllocs = []sim.MultiAllocator{alloc(4), nil}
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("nil shard allocator accepted")
	}
	cfg = base
	cfg.Shards = 2
	cfg.ShardAllocs = []sim.MultiAllocator{alloc(4), alloc(4)}
	cfg.Router = route.NewP2C(route.Uniform(4, 2), 1)
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("a router over 4 links accepted for 2 shards")
	}
	cfg = base
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("no allocator under either name accepted")
	}
	cfg = base
	cfg.Alloc = alloc(8)
	cfg.Shards = 2
	if _, err := NewWithConfig(cfg); err == nil {
		t.Error("Alloc alone accepted for 2 shards")
	}
	cfg = base
	cfg.Shards = 2
	cfg.ShardAllocs = []sim.MultiAllocator{alloc(4), denseOnly{alloc(4)}}
	if _, err := NewWithConfig(cfg); err == nil || !strings.Contains(err.Error(), "gateway.denseOnly") {
		t.Errorf("a dense-only allocator: err = %v, want one naming gateway.denseOnly", err)
	}

	// One is a count: a one-element list, for one shard, routed or not,
	// is the gateway Alloc builds.
	accepted := map[string]Config{
		"Shards 0, one ShardAlloc": {ShardAllocs: []sim.MultiAllocator{alloc(8)}},
		"Shards 1, one ShardAlloc": {Shards: 1, ShardAllocs: []sim.MultiAllocator{alloc(8)}},
		"Shards 1, router, Alloc":  {Shards: 1, Router: route.NewGreedy(route.Uniform(1, 8)), Alloc: alloc(8)},
	}
	for name, c := range accepted {
		c.Addr, c.Slots, c.Ticks = base.Addr, base.Slots, base.Ticks
		g, err := NewWithConfig(c)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(g.shards) != 1 || g.shards[0].alloc == nil {
			t.Errorf("%s: %d shards, the first without an allocator", name, len(g.shards))
		}
		g.Close()
	}
}

// runShardedTrace drives one deterministic workload — fill every slot,
// send slot-dependent payloads, tick, close half, tick again — and
// returns the final accounting.
func runShardedTrace(t *testing.T, nshards int) Stats {
	t.Helper()
	g, ticks := startSharded(t, 8, nshards, 4)
	return driveShardedTrace(t, g, ticks)
}

// driveShardedTrace is runShardedTrace's workload on a given 8-slot
// gateway; it closes the gateway.
func driveShardedTrace(t *testing.T, g *Gateway, ticks *manualTicks) Stats {
	t.Helper()
	const k = 8
	m, err := DialMux(g.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ids := make([]uint32, k)
	for i := range ids {
		id, err := m.Open()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		if err := m.Send(id, bw.Bits(16+4*i)); err != nil {
			t.Fatal(err)
		}
	}
	// The Stats round-trip flushes every DATA message before ticking.
	if _, err := m.Stats(ids[k-1]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ticks.tick()
	}
	waitRounds(g, 3)
	for i := 0; i < k; i += 2 {
		if err := m.CloseSession(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		ticks.tick()
	}
	waitRounds(g, 8)
	return g.Close()
}

// TestShardedStatsMatchUnsharded is the refactor's equivalence gate: the
// same deterministic trace through a 1-shard and a 4-shard gateway must
// produce identical merged accounting — sharding moves the lock
// boundaries, never the numbers.
func TestShardedStatsMatchUnsharded(t *testing.T) {
	single := runShardedTrace(t, 1)
	sharded := runShardedTrace(t, 4)
	if single != sharded {
		t.Errorf("sharded accounting diverged:\n 1 shard: %+v\n4 shards: %+v", single, sharded)
	}
}

// TestOneShardThroughListMatchesAlloc: Alloc is shorthand for a
// one-element list, so a gateway built through either reports the same
// accounting on the same trace.
func TestOneShardThroughListMatchesAlloc(t *testing.T) {
	ticks := newManualTicks()
	g, err := NewWithConfig(Config{Addr: "127.0.0.1:0", Slots: 8, Alloc: perSlotAlloc(8, 4), Ticks: ticks.ch})
	if err != nil {
		t.Fatal(err)
	}
	short := driveShardedTrace(t, g, ticks)
	if list := runShardedTrace(t, 1); list != short {
		t.Errorf("one shard diverged by config spelling:\n      Alloc: %+v\nShardAllocs: %+v", short, list)
	}
}

// TestShardedSessionsSpread asserts the slot table really is partitioned:
// filling every slot touches every shard, the /sessions snapshot tags
// each slot with its shard, and wire IDs map to shards by slot range.
func TestShardedSessionsSpread(t *testing.T) {
	const k, nshards = 16, 4
	g, _ := startSharded(t, k, nshards, 4)
	defer g.Close()
	m, err := DialMux(g.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < k; i++ {
		if _, err := m.Open(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Open(); err != ErrSessionLimit {
		t.Errorf("open past capacity: %v, want ErrSessionLimit", err)
	}
	perShard := map[int]int{}
	for _, s := range g.Sessions() {
		if !s.Open {
			t.Errorf("slot %d not open after fill", s.Slot)
		}
		if want := s.Slot / (k / nshards); s.Shard != want {
			t.Errorf("slot %d tagged shard %d, want %d", s.Slot, s.Shard, want)
		}
		perShard[s.Shard]++
	}
	for sh := 0; sh < nshards; sh++ {
		if perShard[sh] != k/nshards {
			t.Errorf("shard %d holds %d slots, want %d", sh, perShard[sh], k/nshards)
		}
	}
}

// TestMuxConcurrentSessions hammers one multiplexed connection from many
// goroutines, each driving its own session, while ticks run — the
// race-detector workout for the sharded slot table and the Mux's
// serialization of the shared conn.
func TestMuxConcurrentSessions(t *testing.T) {
	const k, nshards, workers, ops = 16, 4, 8, 50
	g, ticks := startSharded(t, k, nshards, 64)
	stop := make(chan struct{})
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		defer pump.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ticks.tick()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	m, err := DialMux(g.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := m.Open()
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < ops; i++ {
				if err := m.Send(id, 8); err != nil {
					errs <- fmt.Errorf("send: %w", err)
					return
				}
				if _, err := m.Stats(id); err != nil {
					errs <- fmt.Errorf("stats: %w", err)
					return
				}
			}
			if err := m.CloseSession(id); err != nil {
				errs <- fmt.Errorf("close: %w", err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	pump.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every session was closed, so whatever it had not been served yet
	// was dropped and counted.
	m.Close()
	st := g.Close()
	if want := bw.Bits(workers * ops * 8); st.Served+st.Queued+st.Closed != want {
		t.Errorf("served %d + queued %d + closed %d != %d sent", st.Served, st.Queued, st.Closed, want)
	}
}

// TestMuxValidation covers the Mux's client-side guards.
func TestMuxValidation(t *testing.T) {
	g, _ := startSharded(t, 4, 2, 4)
	defer g.Close()
	m, err := DialMux(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Send(99, 8); err == nil {
		t.Error("send on unowned session accepted")
	}
	if _, err := m.Stats(99); err == nil {
		t.Error("stats on unowned session accepted")
	}
	if err := m.CloseSession(99); err != nil {
		t.Errorf("close of unowned session: %v, want nil no-op", err)
	}
	id, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Send(id, -1); err == nil {
		t.Error("negative send accepted")
	}
	if n := m.Sessions(); n != 1 {
		t.Errorf("Sessions = %d, want 1", n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(); err == nil {
		t.Error("open on closed mux accepted")
	}
}
