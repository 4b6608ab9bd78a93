package gateway

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/obs"
	"dynbw/internal/rng"
	"dynbw/internal/sim"
)

func startGatewayWithConfig(t *testing.T, k int, idle time.Duration) (*Gateway, *manualTicks) {
	t.Helper()
	p := core.MultiParams{K: k, BO: bw.Rate(16 * k), DO: 4}
	ticks := newManualTicks()
	g, err := NewWithConfig(Config{
		Addr:        "127.0.0.1:0",
		Slots:       k,
		Alloc:       core.MustNewPhased(p),
		Ticks:       ticks.ch,
		IdleTimeout: idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, ticks
}

// TestClientConcurrentUse hammers one session of a Mux from many
// goroutines — the mutex must serialize request/reply pairs on the shared
// connection.
// Run with -race.
func TestClientConcurrentUse(t *testing.T) {
	g, ticks := startGateway(t, 1)
	c, cID, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				ticks.tick()
				// Throttle: an unthrottled tick pump would hold the
				// gateway mutex almost continuously and starve the
				// handlers this test is exercising.
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	const workers, ops = 8, 50
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if w%2 == 0 {
					if err := c.Send(cID, 3); err != nil {
						errs <- err
						return
					}
				} else if _, err := c.Stats(cID); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Sync: a Stats round-trip on the shared conn guarantees every prior
	// DATA message has been parsed into pending; two ticks then push
	// pending into the queues so served+queued accounts for everything.
	if _, err := c.Stats(cID); err != nil {
		t.Fatal(err)
	}
	ticks.tick()
	ticks.tick()
	st, err := c.Stats(cID)
	if err != nil {
		t.Fatal(err)
	}
	if want := bw.Bits(3 * ops * workers / 2); st.Served+st.Queued != want {
		t.Errorf("accounted %d bits, want %d", st.Served+st.Queued, want)
	}
	c.Close()
	g.Close()
}

// TestReleaseRecyclesSynchronously verifies the CLOSE/CLOSED exchange:
// once Release returns, the slot is free — no retry loop needed.
func TestReleaseRecyclesSynchronously(t *testing.T) {
	g, _ := startGateway(t, 1)
	defer g.Close()
	for i := 0; i < 5; i++ {
		c, cID, err := dialOpen(g.Addr(), time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if err := c.CloseSession(cID); err != nil {
			t.Fatalf("round %d release: %v", i, err)
		}
		if err := c.CloseSession(cID); err != nil {
			t.Fatalf("round %d second release not idempotent: %v", i, err)
		}
		c.Close()
	}
}

// TestOpenFailReportsSessionLimit: slot exhaustion is a typed error and
// the refused connection survives for a later retry.
func TestOpenFailReportsSessionLimit(t *testing.T) {
	g, _ := startGateway(t, 1)
	defer g.Close()
	first, firstID, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dialOpen(g.Addr(), time.Second); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("second open: %v, want ErrSessionLimit", err)
	}
	if err := first.CloseSession(firstID); err != nil {
		t.Fatal(err)
	}
	second, _, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatalf("open after release: %v", err)
	}
	second.Close()
	first.Close()
}

// TestIdleTimeoutRecyclesWedgedClient: a client that stops talking is
// disconnected and its slot freed.
func TestIdleTimeoutRecyclesWedgedClient(t *testing.T) {
	g, _ := startGatewayWithConfig(t, 1, 50*time.Millisecond)
	defer g.Close()
	wedged, _, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()
	// Say nothing until the gateway cuts us off and frees the slot.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, _, err := dialOpen(g.Addr(), time.Second)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session's slot never recycled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatsReportsLiveChanges: the STATSR changes field tracks the
// session's schedule renegotiations while the session is running.
func TestStatsReportsLiveChanges(t *testing.T) {
	g, ticks := startGateway(t, 1)
	defer g.Close()
	c, cID, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(cID, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(cID); err != nil { // sync the DATA message
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ticks.tick()
	}
	st, err := c.Stats(cID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Changes == 0 {
		t.Error("no renegotiations reported after serving a burst")
	}
}

// brokenAlloc breaks the sim.SparseAllocator contract in the way its
// mode says until healed — a negative rate, or fewer rates than
// sessions — then serves every slot at 32 bits a tick.
type brokenAlloc struct {
	mode    string
	healed  atomic.Bool
	changed []int32
	rates   []bw.Rate
}

func (a *brokenAlloc) RatesActive(_ bw.Tick, _ []int32, _ []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	a.changed, a.rates = a.changed[:0], a.rates[:0]
	for i := range applied {
		a.changed = append(a.changed, int32(i))
		a.rates = append(a.rates, 32)
	}
	if a.healed.Load() {
		return a.changed, a.rates
	}
	if a.mode == "negative" {
		a.rates[len(a.rates)-1] = -1
		return a.changed, a.rates
	}
	return a.changed, a.rates[:len(a.rates)-1]
}

// Rates is there for Config.Alloc's type; the kernel runs RatesActive
// alone.
func (a *brokenAlloc) Rates(bw.Tick, []bw.Bits, []bw.Bits) []bw.Rate {
	panic("brokenAlloc: dense entry")
}

// lockedBuffer is a log sink the tick goroutine writes and the test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestAllocatorContractViolationServesNothing: an allocator returning a
// negative rate or the wrong number of rates must not crash the tick
// goroutine (queue.Serve panics on a negative rate) or be silently
// clamped. The round serves nothing — not even the slots whose rates
// were fine — the arrivals stay queued, the violation is logged, and
// service resumes once the allocator behaves.
func TestAllocatorContractViolationServesNothing(t *testing.T) {
	for _, mode := range []string{"negative", "short"} {
		t.Run(mode, func(t *testing.T) {
			alloc := &brokenAlloc{mode: mode}
			ticks := newManualTicks()
			var logged lockedBuffer
			g, err := NewWithConfig(Config{
				Addr:  "127.0.0.1:0",
				Slots: 2,
				Alloc: alloc,
				Ticks: ticks.ch,
				Log:   slog.New(slog.NewTextHandler(&logged, nil)),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { g.Close() })
			c, cID, err := dialOpen(g.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Send(cID, 64); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Stats(cID); err != nil { // sync the DATA message
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				ticks.tick()
			}
			st, err := c.Stats(cID)
			if err != nil {
				t.Fatal(err)
			}
			if st.Served != 0 || st.Queued != 64 || st.Changes != 0 {
				t.Errorf("broken allocator: served %d queued %d changes %d, want 0/64/0", st.Served, st.Queued, st.Changes)
			}
			if out := logged.String(); !strings.Contains(out, "allocator broke its contract") || !strings.Contains(out, "shard=0") {
				t.Errorf("violation not logged: %q", out)
			}

			alloc.healed.Store(true)
			ticks.tick()
			ticks.tick()
			waitRounds(g, 5) // the healed allocator serves 32 a round: both rounds, not just the first
			if st, err = c.Stats(cID); err != nil {
				t.Fatal(err)
			}
			if st.Served != 64 || st.Queued != 0 {
				t.Errorf("healed allocator: served %d queued %d, want 64/0", st.Served, st.Queued)
			}
			if final := g.Close(); final.Served != 64 || final.MaxTotalRate != 64 {
				t.Errorf("final stats %+v, want served 64 at peak total rate 64", final)
			}
		})
	}
}

// TestProtocolViolationDropsConnection: DATA naming a session the
// connection does not own must sever it.
func TestProtocolViolationDropsConnection(t *testing.T) {
	g, _ := startGateway(t, 2)
	defer g.Close()
	conn, err := net.Dial("tcp", g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var msg [13]byte
	msg[0] = typeData
	binary.BigEndian.PutUint32(msg[1:], 1) // not ours: we never opened
	binary.BigEndian.PutUint64(msg[5:], 64)
	if _, err := conn.Write(msg[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err == nil {
		t.Fatal("connection survived a protocol violation")
	}
}

// TestStatsDeadlineOnDeadGateway: a gateway that accepts but never
// replies cannot hang Stats past the client timeout.
func TestStatsDeadlineOnDeadGateway(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Answer the OPEN so dialOpen succeeds, then go mute.
			go func(conn net.Conn) {
				var typ [1]byte
				if _, err := conn.Read(typ[:]); err != nil {
					return
				}
				var reply [5]byte
				reply[0] = typeOpened
				conn.Write(reply[:])
			}(conn)
		}
	}()
	c, cID, err := dialOpen(ln.Addr().String(), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Stats(cID); err == nil {
		t.Fatal("Stats succeeded against a mute gateway")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Stats hung %v despite 200ms deadline", elapsed)
	}
}

// TestDeadlineStale pins the amortization contract: the SetDeadline
// syscall is skipped while the armed deadline is fresh and refreshed
// once a quarter of the idle timeout has elapsed — so an idle client is
// cut off after at least 3/4 and at most one full idleTimeout.
func TestDeadlineStale(t *testing.T) {
	const idle = 100 * time.Millisecond
	base := time.Now()
	if deadlineStale(base, base, idle) {
		t.Error("freshly armed deadline reported stale")
	}
	if deadlineStale(base, base.Add(idle/4-time.Nanosecond), idle) {
		t.Error("deadline stale just under a quarter timeout")
	}
	if !deadlineStale(base, base.Add(idle/4), idle) {
		t.Error("deadline fresh at a quarter timeout")
	}
	if !deadlineStale(time.Time{}, base, idle) {
		t.Error("never-armed deadline reported fresh")
	}
}

// TestActiveClientOutlivesIdleTimeout: a client whose sends are spaced
// well under the idle timeout stays connected for many timeouts' worth
// of wall clock — the amortized deadline re-arming must keep pushing
// the cutoff out even when most messages skip the SetDeadline call.
func TestActiveClientOutlivesIdleTimeout(t *testing.T) {
	const idle = 120 * time.Millisecond
	g, _ := startGatewayWithConfig(t, 1, idle)
	defer g.Close()
	c, cID, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 4+ idle timeouts of traffic at ~idle/6 spacing.
	deadline := time.Now().Add(5 * idle)
	for time.Now().Before(deadline) {
		if err := c.Send(cID, 1); err != nil {
			t.Fatalf("active client dropped: %v", err)
		}
		if _, err := c.Stats(cID); err != nil {
			t.Fatalf("active client dropped: %v", err)
		}
		time.Sleep(idle / 6)
	}
}

// TestOverflowingDataNoPanic: two DATA messages whose declared volumes
// sum past an int64 used to overflow the slot's pending cell; the next
// round pushed a negative volume into the queue and the panic, in the
// tick goroutine, took the process and every session down. A slot's
// backlog now saturates at sim.MaxBacklog, the excess is dropped and
// counted, rounds keep running, and the slot's neighbour is served in
// full. A panic here would kill the test binary, which is the regression
// signal; the assertions check the policing on top.
func TestOverflowingDataNoPanic(t *testing.T) {
	const huge = bw.Bits(1) << 62
	for _, batched := range []bool{false, true} {
		name := "unbatched"
		if batched {
			name = "batched"
		}
		t.Run(name, func(t *testing.T) {
			ticks := newManualTicks()
			reg := obs.NewRegistry()
			g, err := NewWithConfig(Config{
				Addr:    "127.0.0.1:0",
				Slots:   2,
				Alloc:   core.MustNewPhased(core.MultiParams{K: 2, BO: 32, DO: 4}),
				Ticks:   ticks.ch,
				Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()

			hostile, err := DialMux(g.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer hostile.Close()
			id, err := hostile.Open()
			if err != nil {
				t.Fatal(err)
			}
			victim, victimID, err := dialOpen(g.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer victim.Close()

			if batched {
				err = hostile.SendBatch([]BatchItem{{Session: id, Bits: huge}, {Session: id, Bits: huge}})
			} else if err = hostile.Send(id, huge); err == nil {
				err = hostile.Send(id, huge)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := hostile.Stats(id); err != nil { // barrier: both DATA applied
				t.Fatal(err)
			}
			if got, want := reg.Snapshot()["dynbw_gateway_policed_bits_total"], int64(huge+(huge-sim.MaxBacklog)); got != want {
				t.Errorf("policed %d bits, want %d", got, want)
			}
			if err := victim.Send(victimID, 100); err != nil {
				t.Fatal(err)
			}
			if _, err := victim.Stats(victimID); err != nil {
				t.Fatal(err)
			}
			// Keep topping the full slot up while rounds run: the slower
			// way to the same overflow, through the queue's own counter.
			for i := 0; i < 24; i++ {
				ticks.tick()
				if err := hostile.Send(id, huge); err != nil {
					t.Fatal(err)
				}
			}
			ticks.tick() // barrier: the previous round is complete

			st, err := victim.Stats(victimID)
			if err != nil {
				t.Fatalf("gateway stopped answering: %v", err)
			}
			if st.Served != 100 || st.Queued != 0 {
				t.Errorf("neighbour served %d queued %d, want 100/0", st.Served, st.Queued)
			}
			hs, err := hostile.Stats(id)
			if err != nil {
				t.Fatal(err)
			}
			if hs.Queued < 0 || hs.Queued > sim.MaxBacklog || hs.Served <= 0 {
				t.Errorf("hostile session: served %d queued %d (cap %d)", hs.Served, hs.Queued, sim.MaxBacklog)
			}
		})
	}
}

// TestOpenIsFirstFit: OPEN hands out the lowest free slot, as a scan from
// slot 0 would, while starting its scan at the shard's free-slot hint —
// through a ramp, scattered releases, and refills.
func TestOpenIsFirstFit(t *testing.T) {
	const k = 300
	g := newBare(k)
	sh := g.shards[0]
	open := make(map[int]int) // slot -> wire ID of the session in it
	lowestFree := func() int {
		for i := 0; i < k; i++ {
			if _, taken := open[i]; !taken {
				return i
			}
		}
		return -1
	}
	mustOpen := func() {
		t.Helper()
		want := lowestFree()
		id, ok := sh.open(1)
		if !ok || id&g.indexMask != want {
			t.Fatalf("open() = %#x, %v; first fit is slot %d", id, ok, want)
		}
		open[want] = id
	}
	for i := 0; i < k; i++ {
		mustOpen()
	}
	if _, ok := sh.open(1); ok {
		t.Fatal("open on a full table succeeded")
	}
	src := rng.New(5)
	for round := 0; round < 50; round++ {
		for n := 1 + src.Intn(40); n > 0; n-- {
			slot := src.Intn(k)
			if id, taken := open[slot]; taken {
				sh.release(id)
				delete(open, slot)
			}
		}
		for n := src.Intn(40); n > 0 && len(open) < k; n-- {
			mustOpen()
		}
		if sh.slots.Tenants() != len(open) {
			t.Fatalf("Tenants() = %d, %d sessions open", sh.slots.Tenants(), len(open))
		}
	}
}

// TestShutdownIsNotAClientError: Close force-closes the connections that
// are still live, and the handler parked in a read on one of them wakes
// with net.ErrClosed. That is the gateway's own doing, not a client I/O
// error: the io class stays at zero and nothing is logged.
func TestShutdownIsNotAClientError(t *testing.T) {
	var logged lockedBuffer
	ticks := newManualTicks()
	g, err := NewWithConfig(Config{
		Addr:    "127.0.0.1:0",
		Slots:   2,
		Alloc:   core.MustNewPhased(core.MultiParams{K: 2, BO: 32, DO: 4}),
		Ticks:   ticks.ch,
		Metrics: obs.NewRegistry(),
		Log:     slog.New(slog.NewTextHandler(&logged, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	m, err := DialMux(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stats(id); err != nil { // the handler is now parked between exchanges
		t.Fatal(err)
	}
	g.Close()
	for class, c := range g.m.errors {
		if c.Value() != 0 {
			t.Errorf("dynbw_gateway_errors_total{class=%q} = %d after a clean shutdown", class, c.Value())
		}
	}
	if out := logged.String(); out != "" {
		t.Errorf("clean shutdown logged: %s", out)
	}
}

// TestIdleDisconnectNamesItsSession: the event an idle disconnect emits
// names the connection's session when it owns exactly one, and is -1
// when it owns two. Each connection first closes the session on slot 0,
// so the one it keeps is not slot 0's.
func TestIdleDisconnectNamesItsSession(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("sessions=%d", n), func(t *testing.T) {
			ring := obs.NewRing(64)
			g, err := NewWithConfig(Config{
				Addr:        "127.0.0.1:0",
				Slots:       4,
				Alloc:       perSlotAlloc(4, 4),
				Ticks:       newManualTicks().ch,
				IdleTimeout: 50 * time.Millisecond,
				Observer:    ring,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			m, err := DialMux(g.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			var ids []uint32
			for range n + 1 {
				id, err := m.Open()
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			if err := m.CloseSession(ids[0]); err != nil {
				t.Fatal(err)
			}
			want := -1
			if n == 1 {
				want = int(ids[1])
			}
			deadline := time.Now().Add(2 * time.Second)
			for {
				var idle []obs.Event
				for _, e := range ring.Snapshot() {
					if e.Type == obs.EventIdleDisconnect {
						idle = append(idle, e)
					}
				}
				if len(idle) > 0 {
					if len(idle) != 1 || idle[0].Session != want {
						t.Fatalf("idle-disconnect events %+v, want one naming session %d", idle, want)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("the idle connection was never disconnected")
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
