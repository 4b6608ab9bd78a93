package gateway

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/route"
)

// TestWireRejectsIDsThatAreNotYours is the wire conformance table for
// session IDs: every way a connection can name a session that is not a
// live one of its own, in each message that names one. Each is a protocol
// violation that lands no bit anywhere and costs the connection its
// sessions, and nobody else theirs.
func TestWireRejectsIDsThatAreNotYours(t *testing.T) {
	// Five slots take three index bits, so indexes 5..7 name no slot.
	const k = 5
	// The fixture: another connection holds a session on slot 0; this
	// one holds live on slot 1 and stays on slot 2, and may churn live
	// before it sends the bad ID.
	type fixture struct {
		g                *Gateway
		me               *connState
		other, live, own int
	}
	send := func(t *testing.T, g *Gateway, cs *connState, msg []byte) ([]byte, error) {
		t.Helper()
		var reply bytes.Buffer
		err := g.handleMessage(wireReader(msg), &reply, cs)
		return reply.Bytes(), err
	}
	open := func(t *testing.T, g *Gateway, cs *connState) int {
		t.Helper()
		reply, err := send(t, g, cs, fuzzSeed(typeOpen))
		if err != nil || len(reply) != 5 || reply[0] != typeOpened {
			t.Fatalf("OPEN: reply %x, err %v", reply, err)
		}
		return int(binary.BigEndian.Uint32(reply[1:]))
	}
	closeLive := func(t *testing.T, f *fixture) {
		t.Helper()
		if _, err := send(t, f.g, f.me, fuzzSeed(typeClose, uint64(f.live))); err != nil {
			t.Fatal(err)
		}
	}

	ids := []struct {
		name string
		bad  func(t *testing.T, f *fixture) int
	}{
		{"never opened", func(t *testing.T, f *fixture) int { return 3 }},
		{"another connection's live session", func(t *testing.T, f *fixture) int { return f.other }},
		{"own session after its CLOSE", func(t *testing.T, f *fixture) int {
			closeLive(t, f)
			return f.live
		}},
		{"own session after its CLOSE and a re-OPEN on the same slot", func(t *testing.T, f *fixture) int {
			closeLive(t, f)
			if again := open(t, f.g, f.me); again == f.live || again&f.g.indexMask != f.live&f.g.indexMask {
				t.Fatalf("re-OPEN after closing %#x gave %#x: want the same slot under a new ID", f.live, again)
			}
			return f.live
		}},
		{"a live slot under a foreign tag", func(t *testing.T, f *fixture) int { return f.own | 5<<f.g.indexBits }},
		{"an index past the last slot", func(t *testing.T, f *fixture) int { return 6 }},
	}
	msgs := []struct {
		name string
		msg  func(id int) []byte
	}{
		{"DATA", func(id int) []byte { return fuzzSeed(typeData, uint64(id), 64) }},
		{"batched DATA", func(id int) []byte { return batchFrame(1, fuzzSeed(typeData, uint64(id), 64)) }},
		{"STATS", func(id int) []byte { return fuzzSeed(typeStats, uint64(id)) }},
		{"CLOSE", func(id int) []byte { return fuzzSeed(typeClose, uint64(id)) }},
	}
	for _, id := range ids {
		for _, m := range msgs {
			t.Run(id.name+"/"+m.name, func(t *testing.T) {
				g := newBare(k)
				sh := g.shards[0]
				them := g.getConnState(0, 0)
				f := &fixture{g: g, me: g.getConnState(0, 0)}
				f.other = open(t, g, them)
				f.live = open(t, g, f.me)
				f.own = open(t, g, f.me)
				bad := id.bad(t, f)

				reply, err := send(t, g, f.me, m.msg(bad))
				if !errors.Is(err, errProtocol) {
					t.Fatalf("%s naming %#x: reply %x, err %v; want errProtocol", m.name, bad, reply, err)
				}
				if len(reply) != 0 {
					t.Errorf("%s naming %#x was answered: %x", m.name, bad, reply)
				}
				for slot := 0; slot < k; slot++ {
					if p, q := sh.slots.Pending(slot), sh.slots.Queue(slot).Bits(); p != 0 || q != 0 {
						t.Errorf("slot %d holds %d pending and %d queued bits; nothing valid was sent", slot, p, q)
					}
				}
				g.releaseAll(f.me) // what Gateway.handle does with the error
				owned := ownedBy(g, them)
				if _, ok := owned[uint32(f.other)]; !ok || sh.slots.Tenants() != 1 || !sh.slots.Seated(sh.slot(f.other)) {
					t.Errorf("after the connection dropped: %d slots in use, bystander owns %v; want its one session only", sh.slots.Tenants(), owned)
				}
				if _, err := send(t, g, them, fuzzSeed(typeStats, uint64(f.other))); err != nil {
					t.Errorf("bystander's STATS: %v", err)
				}
			})
		}
	}
}

// startRouted launches a gateway of k slots over two shards whose OPENs
// a greedy router places, perSlotAlloc on each shard.
func startRouted(t *testing.T, k int, perSlotCap bw.Rate) (*Gateway, *manualTicks, *route.Policy) {
	t.Helper()
	const shards = 2
	router := route.NewGreedy(route.Uniform(shards, bw.Rate(k/shards)))
	ticks := newManualTicks()
	g, err := NewWithConfig(Config{
		Addr:        "127.0.0.1:0",
		Slots:       k,
		Shards:      shards,
		Router:      router,
		ShardAllocs: perSlotAllocs(shards, k, perSlotCap),
		Ticks:       ticks.ch,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, ticks, router
}

// burst is bits for one session ahead of one round.
type burst struct {
	m    *Mux
	id   uint32
	bits bw.Bits
}

// roundWith delivers the bursts, then runs one round to completion.
func roundWith(t *testing.T, g *Gateway, ticks *manualTicks, bursts ...burst) {
	t.Helper()
	for _, b := range bursts {
		if b.bits == 0 {
			continue
		}
		if err := b.m.Send(b.id, b.bits); err != nil {
			t.Fatal(err)
		}
		if _, err := b.m.Stats(b.id); err != nil { // barrier: DATA applied
			t.Fatal(err)
		}
	}
	n := g.now.Load()
	ticks.tick()
	waitRounds(g, n+1)
}

// TestTenantIsolation: a session that CLOSEs with a backlog leaves
// nothing of itself behind. Its successor on the slot reads exactly what
// the first session of a never-used gateway reads under the same
// arrivals — its first bit is served at once, not behind the stranger's
// queue — and a neighbour sending throughout is served in full and on
// time. perSlotAlloc keeps no state and looks at nothing but a slot's own
// queue, so any difference is the table's doing. On two routed shards
// the router, not the connection's stripe, places every session.
func TestTenantIsolation(t *testing.T) {
	const (
		k       = 8
		slotCap = bw.Rate(4)
		steady  = bw.Bits(4)  // the neighbour's bits per round: what one round serves
		backlog = bw.Bits(96) // the first tenant's: 24 rounds' worth
	)
	// The second tenant's arrivals, by round since its OPEN.
	arrivals := []bw.Bits{40, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}

	for _, tc := range []struct {
		name  string
		start func(t *testing.T) (*Gateway, *manualTicks, *route.Policy)
	}{
		{"one shard", func(t *testing.T) (*Gateway, *manualTicks, *route.Policy) {
			g, ticks := startSharded(t, k, 1, slotCap)
			return g, ticks, nil
		}},
		{"four shards", func(t *testing.T) (*Gateway, *manualTicks, *route.Policy) {
			g, ticks := startSharded(t, k, 4, slotCap)
			return g, ticks, nil
		}},
		{"two routed shards", func(t *testing.T) (*Gateway, *manualTicks, *route.Policy) {
			return startRouted(t, 4, slotCap)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dial := func(g *Gateway) *Mux {
				m, err := DialMux(g.Addr(), 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { m.Close() })
				return m
			}
			mustOpen := func(m *Mux) uint32 {
				id, err := m.Open()
				if err != nil {
					t.Fatal(err)
				}
				return id
			}
			mustStats := func(m *Mux, id uint32) SessionStats {
				st, err := m.Stats(id)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}

			// The reference: the first session a gateway of this shape
			// ever had.
			ref, refTicks, _ := tc.start(t)
			defer ref.Close()
			rm := dial(ref)
			first := mustOpen(rm)
			for _, bits := range arrivals {
				roundWith(t, ref, refTicks, burst{rm, first, bits})
			}
			want := mustStats(rm, first)
			if want.Served != 52 || want.Queued != 0 || want.MaxDelay == 0 || want.Changes == 0 {
				t.Fatalf("reference run is degenerate: %+v", want)
			}

			g, ticks, router := tc.start(t)
			// The neighbour on one connection; the tenants on a second,
			// whose home shard is the next one.
			nm, tm := dial(g), dial(g)
			neighbour := mustOpen(nm)
			a := mustOpen(tm)
			var sent bw.Bits
			busy := func() burst {
				sent += steady
				return burst{nm, neighbour, steady}
			}
			roundWith(t, g, ticks, busy(), burst{tm, a, backlog})
			roundWith(t, g, ticks, busy())
			roundWith(t, g, ticks, busy())
			if st := mustStats(tm, a); st.Queued == 0 || st.Served == 0 {
				t.Fatalf("first tenant is not mid-queue at its CLOSE: %+v", st)
			}
			if err := tm.CloseSession(a); err != nil {
				t.Fatal(err)
			}
			// Three rounds with the slot free. The round after a slot is
			// left returns its rate — the allocator's last answer for it,
			// which stays with the slot — to the zero a never-used slot
			// starts from.
			roundWith(t, g, ticks, busy())
			roundWith(t, g, ticks, busy())
			roundWith(t, g, ticks, busy())

			b := mustOpen(tm)
			if mask := uint32(g.indexMask); b == a || b&mask != a&mask {
				t.Fatalf("second tenant got ID %#x after %#x: want the same index under a new tag", b, a)
			}
			if sh := g.shardOf(int(b)).idx; router != nil && sh != 1 {
				t.Fatalf("second tenant on shard %d, want 1", sh)
			}
			for l := 0; router != nil && l < 2; l++ {
				if n, open := router.SessionsOf(route.LinkID(l)), g.shards[l].openCount(); n != 1 || open != 1 {
					t.Fatalf("link %d: the router holds %d sessions, its shard %d; want 1 and 1", l, n, open)
				}
			}
			for _, bits := range arrivals {
				roundWith(t, g, ticks, busy(), burst{tm, b, bits})
			}
			if got := mustStats(tm, b); got != want {
				t.Errorf("second tenant reads %+v\nfirst session of a fresh gateway reads %+v", got, want)
			}
			if got := mustStats(nm, neighbour); got.Served != sent || got.Queued != 0 || got.MaxDelay > 1 {
				t.Errorf("neighbour sent %d bits at one round's worth a round: %+v", sent, got)
			}
			nm.Close()
			tm.Close()
			if st := g.Close(); st.Closed == 0 || st.Served+st.Closed != sent+backlog+52 {
				t.Errorf("Close() = %+v: want the dropped backlog in Closed, and every bit sent in Served + Closed", st)
			}
		})
	}
}

// TestFreeSlotStageStartIsNotTheNextTenants: a stage start rewrites every
// slot's rate, open or not. What that costs a free slot is the gateway's
// to report, not the next tenant's.
func TestFreeSlotStageStartIsNotTheNextTenants(t *testing.T) {
	const k = 2
	ticks := newManualTicks()
	g, err := NewWithConfig(Config{Addr: "127.0.0.1:0", Slots: k, Alloc: core.MustNewPhased(core.MultiParams{K: k, BO: 16 * k, DO: 4}), Ticks: ticks.ch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	roundWith(t, g, ticks) // the first stage starts: both slots go from 0 to B_O/k
	c, cID, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(cID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Changes != 0 {
		t.Errorf("a session that has sent nothing reads %d changes", st.Changes)
	}
	if err := c.CloseSession(cID); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if total := g.Close(); total.SessionChanges != k {
		t.Errorf("Close() counts %d changes, want the stage start's %d", total.SessionChanges, k)
	}
}

// TestOwnershipUnderChurn: on a two-slot gateway, connection A OPENs and
// CLOSEs the same slot over and over while connection B, which holds the
// other slot, checks every ID A was ever handed, through the lock-free
// ownership check and through STATS on the wire. None ever reads as B's,
// B's own session always does, and A's check holds exactly while its
// session is live. Run it with -race.
func TestOwnershipUnderChurn(t *testing.T) {
	const churns = 2000
	g := newBare(2)
	a, b := g.getConnState(0, 0), g.getConnState(0, 0)
	send := func(cs *connState, msg []byte) ([]byte, error) {
		var reply bytes.Buffer
		err := g.handleMessage(wireReader(msg), &reply, cs)
		return reply.Bytes(), err
	}
	open := func(cs *connState) (uint32, error) {
		reply, err := send(cs, fuzzSeed(typeOpen))
		if err == nil && (len(reply) != 5 || reply[0] != typeOpened) {
			err = fmt.Errorf("OPEN replied %x", reply)
		}
		if err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(reply[1:]), nil
	}
	first, err := open(a)
	if err != nil {
		t.Fatal(err)
	}
	mine, err := open(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := send(a, fuzzSeed(typeClose, uint64(first))); err != nil {
		t.Fatal(err)
	}

	var handed [churns + 1]atomic.Uint32
	var published atomic.Int64
	handed[0].Store(first)
	published.Store(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= churns; i++ {
			id, err := open(a)
			if err != nil {
				t.Errorf("churn %d: %v", i, err)
				return
			}
			if id&uint32(g.indexMask) != first&uint32(g.indexMask) {
				t.Errorf("churn %d: OPEN took slot %d, want the churned slot", i, id&uint32(g.indexMask))
				return
			}
			handed[i].Store(id)
			published.Store(int64(i + 1))
			if !g.owns(a.serial, id) {
				t.Errorf("churn %d: A's live session %#x does not read as A's", i, id)
			}
			if _, err := send(a, fuzzSeed(typeStats, uint64(id))); err != nil {
				t.Errorf("churn %d: A's STATS of its live session: %v", i, err)
			}
			if _, err := send(a, fuzzSeed(typeClose, uint64(id))); err != nil {
				t.Errorf("churn %d: A's CLOSE: %v", i, err)
				return
			}
			if g.owns(a.serial, id) {
				t.Errorf("churn %d: A's session %#x still reads as A's after its CLOSE", i, id)
			}
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		for i := range published.Load() {
			id := handed[i].Load()
			if g.owns(b.serial, id) {
				t.Fatalf("A's ID %#x reads as B's", id)
			}
			if reply, err := send(b, fuzzSeed(typeStats, uint64(id))); !errors.Is(err, errProtocol) {
				t.Fatalf("B's STATS of A's ID %#x: reply %x, err %v; want errProtocol", id, reply, err)
			}
		}
		if !g.owns(b.serial, mine) {
			t.Fatalf("B's own session %#x does not read as B's", mine)
		}
	}
	if n := published.Load(); n != churns+1 {
		t.Fatalf("A was handed %d IDs, want %d", n, churns+1)
	}
}
