package gateway

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// batchFrame assembles a BATCH wire frame: type byte, big-endian uint16
// count, then the given payload verbatim.
func batchFrame(count int, payload ...[]byte) []byte {
	var b bytes.Buffer
	b.WriteByte(typeBatch)
	var cb [2]byte
	binary.BigEndian.PutUint16(cb[:], uint16(count))
	b.Write(cb[:])
	for _, p := range payload {
		b.Write(p)
	}
	return b.Bytes()
}

// sendN submits a sequence of payloads to one session through its Mux's
// SendBatch, as BATCH frames of DATA messages.
func sendN(m *Mux, id uint32, bits []bw.Bits) error {
	items := make([]BatchItem, len(bits))
	for i, b := range bits {
		items[i] = BatchItem{Session: id, Bits: b}
	}
	return m.SendBatch(items)
}

// TestClientSendNRoundTrip: a batched single-session sender's bits land
// on the gateway exactly like the same bits sent one DATA at a time.
func TestClientSendNRoundTrip(t *testing.T) {
	g, ticks := startGateway(t, 2)
	defer g.Close()
	c, cID, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bits := make([]bw.Bits, 100)
	var want bw.Bits
	for i := range bits {
		bits[i] = bw.Bits(i + 1)
		want += bits[i]
	}
	if err := sendN(c, cID, bits); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(cID); err != nil { // sync: batch fully applied
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		ticks.tick()
	}
	st, err := c.Stats(cID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Served+st.Queued != want {
		t.Errorf("served %d + queued %d != %d", st.Served, st.Queued, want)
	}

	if err := sendN(c, cID, nil); err != nil {
		t.Errorf("empty SendBatch: %v", err)
	}
	if err := sendN(c, cID, []bw.Bits{1, -1}); err == nil {
		t.Error("negative payload accepted")
	}
}

// TestClientSendNSplitsFrames: MaxBatch+1 payloads do not fit one BATCH
// frame; the split (Mux.SendBatch's) must land every bit.
func TestClientSendNSplitsFrames(t *testing.T) {
	g, _ := startGateway(t, 2)
	defer g.Close()
	c, cID, err := dialOpen(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bits := make([]bw.Bits, MaxBatch+1)
	for i := range bits {
		bits[i] = 3
	}
	if err := sendN(c, cID, bits); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(cID); err != nil { // sync: both frames applied
		t.Fatal(err)
	}
	if err := c.CloseSession(cID); err != nil {
		t.Fatal(err)
	}
	// No round ran: CLOSE dropped exactly what the two frames delivered.
	if got, want := g.Close().Closed, bw.Bits(3*(MaxBatch+1)); got != want {
		t.Errorf("gateway accepted %d bits, want %d", got, want)
	}
}

// TestMuxSendBatchRoundTrip: one BATCH frame fans DATA out across
// sessions living on different shards, and StatsBatch reads the same
// accounting back that per-session Stats reports.
func TestMuxSendBatchRoundTrip(t *testing.T) {
	g, ticks, _, _ := startTraced(t, 8, 4, 1<<20)
	defer g.Close()
	m, err := DialMux(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sessions := make([]uint32, 8)
	for i := range sessions {
		id, err := m.Open()
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = id
	}
	items := make([]BatchItem, 0, 2*len(sessions))
	want := map[uint32]bw.Bits{}
	for round := 0; round < 2; round++ {
		for i, s := range sessions {
			b := bw.Bits(8*i + round + 1)
			items = append(items, BatchItem{Session: s, Bits: b})
			want[s] += b
		}
	}
	if err := m.SendBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stats(sessions[0]); err != nil { // sync
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ticks.tick()
	}
	batched, err := m.StatsBatch(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(sessions) {
		t.Fatalf("StatsBatch returned %d entries, want %d", len(batched), len(sessions))
	}
	for i, s := range sessions {
		single, err := m.Stats(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := batched[i].Served + batched[i].Queued; got != want[s] {
			t.Errorf("session %d: served+queued = %d, want %d", s, got, want[s])
		}
		// Ticks stopped, so batched and single snapshots must agree.
		if batched[i] != single {
			t.Errorf("session %d: StatsBatch %+v != Stats %+v", s, batched[i], single)
		}
	}

	if err := m.SendBatch(nil); err != nil {
		t.Errorf("empty SendBatch: %v", err)
	}
	if err := m.SendBatch([]BatchItem{{Session: 9999, Bits: 1}}); err == nil {
		t.Error("unowned session accepted")
	}
	if err := m.SendBatch([]BatchItem{{Session: sessions[0], Bits: -1}}); err == nil {
		t.Error("negative bits accepted")
	}
	if _, err := m.StatsBatch([]uint32{9999}); err == nil {
		t.Error("StatsBatch on unowned session accepted")
	}
}

// TestSendBatchChunksAboveMaxBatch: more items than fit one frame are
// split into several frames transparently.
func TestSendBatchChunksAboveMaxBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g, _ := startGateway(t, 1)
	defer g.Close()
	m, err := DialMux(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, MaxBatch+7)
	for i := range items {
		items[i] = BatchItem{Session: id, Bits: 1}
	}
	if err := m.SendBatch(items); err != nil {
		t.Fatal(err)
	}
	st, err := m.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	// No ticks ran, so nothing served yet; the sync guarantees every
	// chunk was applied before STATS was answered.
	_ = st
	sh := g.shards[0]
	sh.mu.Lock()
	pending := sh.slots.Pending(sh.slot(int(id)))
	sh.mu.Unlock()
	if pending != bw.Bits(len(items)) {
		t.Errorf("pending = %d, want %d", pending, len(items))
	}
}

// TestBatchWireEdgeCases drives malformed and edge-case BATCH frames
// straight through handleMessage on a bare gateway.
func TestBatchWireEdgeCases(t *testing.T) {
	open := fuzzSeed(typeOpen)
	data := fuzzSeed(typeData, 0, 64)

	t.Run("empty batch is a no-op", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		if err := g.handleMessage(wireReader(batchFrame(0)), io.Discard, cs); err != nil {
			t.Fatalf("empty batch: %v", err)
		}
	})
	t.Run("truncated count is a read error", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		err := g.handleMessage(wireReader([]byte{typeBatch, 0}), io.Discard, cs)
		if err == nil || errors.Is(err, errProtocol) {
			t.Fatalf("truncated count: got %v, want plain read error", err)
		}
	})
	t.Run("oversized count is a protocol violation", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		err := g.handleMessage(wireReader([]byte{typeBatch, 0xff, 0xff}), io.Discard, cs)
		if !errors.Is(err, errProtocol) {
			t.Fatalf("count 0xffff: got %v, want errProtocol", err)
		}
	})
	t.Run("nested batch is a protocol violation", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		err := g.handleMessage(wireReader(batchFrame(1, batchFrame(0))), io.Discard, cs)
		if !errors.Is(err, errProtocol) {
			t.Fatalf("nested batch: got %v, want errProtocol", err)
		}
	})
	t.Run("trace wrapping batch is a protocol violation", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		in := append([]byte{typeTrace, 0, 0, 0, 0, 0, 0, 0, 1}, batchFrame(0)...)
		err := g.handleMessage(wireReader(in), io.Discard, cs)
		if !errors.Is(err, errProtocol) {
			t.Fatalf("TRACE-wrapped batch: got %v, want errProtocol", err)
		}
	})
	t.Run("mixed open and data applies", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		var w bytes.Buffer
		in := batchFrame(3, open, data, data)
		if err := g.handleMessage(wireReader(in), &w, cs); err != nil {
			t.Fatal(err)
		}
		if _, ok := ownedBy(g, cs)[0]; !ok {
			t.Fatal("OPEN inside batch did not register session 0")
		}
		sh := g.shards[0]
		if got := sh.slots.Pending(0); got != 128 {
			t.Errorf("pending[0] = %d, want 128 (two batched DATA)", got)
		}
		if w.Len() != 5 || w.Bytes()[0] != typeOpened {
			t.Errorf("reply = %x, want OPENED frame", w.Bytes())
		}
	})
	t.Run("data before close is applied first", func(t *testing.T) {
		// The ordering barrier: CLOSE must flush the waiting lists before
		// releasing the slot, or the DATA would land on a freed (or worse,
		// re-opened) slot.
		g := newBare(4)
		cs := g.getConnState(0, 0)
		in := batchFrame(3, open, data, fuzzSeed(typeClose, 0))
		if err := g.handleMessage(wireReader(in), io.Discard, cs); err != nil {
			t.Fatal(err)
		}
		if owned := ownedBy(g, cs); len(owned) != 0 {
			t.Fatalf("owned = %v after CLOSE", owned)
		}
		sh := g.shards[0]
		if sh.slots.Tenants() != 0 {
			t.Errorf("Tenants() = %d after CLOSE", sh.slots.Tenants())
		}
		if got := sh.past.Dropped; got != 64 {
			t.Errorf("CLOSE dropped %d bits, want the 64 applied before release", got)
		}
		if got := sh.slots.Pending(0); got != 0 {
			t.Errorf("pending[0] = %d on a free slot", got)
		}
	})
	t.Run("a recycled connState carries no listed ops", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		bad := fuzzSeed(typeData, 3, 64) // unowned session
		in := batchFrame(3, open, data, bad)
		err := g.handleMessage(wireReader(in), io.Discard, cs)
		if !errors.Is(err, errProtocol) {
			t.Fatalf("got %v, want errProtocol", err)
		}
		// The connection dies; nothing its last unit listed may leak into
		// the next connection that reuses the state.
		g.putConnState(cs)
		cs2 := g.getConnState(0, 0)
		for i, l := range cs2.lists {
			if len(l) != 0 {
				t.Errorf("recycled connState carries %d listed ops for shard %d", len(l), i)
			}
		}
		if cs2.data != 0 || len(cs2.replies) != 0 {
			t.Errorf("recycled connState counts %d DATA and %d replies", cs2.data, len(cs2.replies))
		}
		if got := g.shards[0].slots.Pending(0); got != 0 {
			t.Errorf("aborted batch leaked pending = %d", got)
		}
	})
}

// TestBatchTraceEnvelope: TRACE envelopes ride inside BATCH frames and
// produce client spans without counting against the batch's message
// count.
func TestBatchTraceEnvelope(t *testing.T) {
	g, _, _, ring := startTraced(t, 4, 1, 1<<20) // no local sampling
	defer g.Close()
	m, err := DialMux(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	m.TraceEvery(1) // every item gets an envelope
	items := []BatchItem{{Session: id, Bits: 1}, {Session: id, Bits: 2}, {Session: id, Bits: 3}}
	if err := m.SendBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stats(id); err != nil { // sync
		t.Fatal(err)
	}
	var dataSpans int
	for _, s := range ring.Snapshot() {
		if s.Kind == "data" {
			dataSpans++
			if !s.Client {
				t.Errorf("batched traced span not client-minted: %+v", s)
			}
			if s.Session != int(id) {
				t.Errorf("span session = %d, want %d", s.Session, id)
			}
		}
	}
	if dataSpans != len(items) {
		t.Errorf("got %d traced data spans, want %d", dataSpans, len(items))
	}
	sh := g.shards[0]
	sh.mu.Lock()
	pending := sh.slots.Pending(sh.slot(int(id)))
	sh.mu.Unlock()
	if pending != 6 {
		t.Errorf("pending = %d, want 6", pending)
	}
}

// TestHandleBatchDataZeroAlloc is the batched-path overhead contract: a
// 64-DATA frame, a 64-STATS frame and a frame of 32 DATA then 32 STATS
// allocate nothing, on a bare gateway and with metrics, sampler and span
// ring attached and the messages not sampled — the shard lists, the
// STATS replies, the span scratch and the buffers all live in the pooled
// connState.
func TestHandleBatchDataZeroAlloc(t *testing.T) {
	const n = 64
	frame := func(data, stats int) []byte {
		var msgs [][]byte
		for range data {
			msgs = append(msgs, fuzzSeed(typeData, 0, 64))
		}
		for range stats {
			msgs = append(msgs, fuzzSeed(typeStats, 0))
		}
		return batchFrame(data+stats, msgs...)
	}
	for _, f := range []struct {
		name  string
		frame []byte
	}{
		{"64 DATA", frame(n, 0)},
		{"64 STATS", frame(0, n)},
		{"32 DATA + 32 STATS", frame(n/2, n/2)},
	} {
		if base, got := unitAllocs(t, newBare(4), f.frame), unitAllocs(t, newInstrumented(4), f.frame); base != 0 || got != 0 {
			t.Errorf("a frame of %s allocates %.2f/op bare and %.2f/op instrumented, want 0 and 0", f.name, base, got)
		}
	}
}

// newInstrumented is newBare with metrics, a span ring and a sampler at
// the default period attached.
func newInstrumented(k int) *Gateway {
	g := newBare(k)
	g.m = newGWMetrics(obs.NewRegistry(), "test", 1)
	g.spans = obs.NewSpanRing(64, StageNames())
	g.sampler = obs.NewSampler(obs.DefaultSampleEvery, 1)
	return g
}

// unitAllocs is what one handleMessage of unit allocates on g, warm, on a
// connection that owns session 0.
func unitAllocs(t *testing.T, g *Gateway, unit []byte) float64 {
	t.Helper()
	cs := g.getConnState(0, 0)
	if err := g.handleMessage(wireReader(fuzzSeed(typeOpen)), io.Discard, cs); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(nil)
	r := bufio.NewReaderSize(src, connReadBufSize)
	return testing.AllocsPerRun(512, func() {
		src.Reset(unit)
		r.Reset(src)
		if err := g.handleMessage(r, io.Discard, cs); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatchedEqualsUnbatched: a BATCH frame does what its messages do
// when each is sent as a unit of its own — the same reply bytes, the same
// slot state, the same message counters — whichever shards its sessions
// live on and whichever of its messages are timed. A frame that hits a
// protocol error mid-way does what the messages ahead of the error do
// sent alone: they are applied and answered.
func TestBatchedEqualsUnbatched(t *testing.T) {
	// Twelve slots, three on each of four shards or all on one: the
	// connection's eleven sessions, IDs 0..10, and another connection's,
	// ID 11. Twelve slots take four index bits, so indexes 12..15 name
	// no slot. A CLOSE lets the next OPEN take the slot under the next
	// tag: the closed session 4 is followed by ID 1<<4|4.
	const k, mine, foreign, reopened = 12, 11, 11, 1<<4 | 4
	data := func(id int, bits uint64) []byte { return fuzzSeed(typeData, uint64(id), bits) }
	stats := func(id int) []byte { return fuzzSeed(typeStats, uint64(id)) }
	closing := func(id int) []byte { return fuzzSeed(typeClose, uint64(id)) }
	traced := func(msg []byte) []byte { return append([]byte{typeTrace, 0, 0, 0, 0, 0, 0, 0, 7}, msg...) }
	open := fuzzSeed(typeOpen)
	var everySession, alternating [][]byte
	for id := range mine {
		everySession = append(everySession, data(id, uint64(id+1)), stats((id+3)%mine))
		alternating = append(alternating, data(id, uint64(2*id+1)), stats(id))
	}
	tests := []struct {
		name string
		msgs [][]byte
		// bad, with wantErr, is the index of the message that is a
		// protocol violation; messages follow it.
		wantErr bool
		bad     int
	}{
		{name: "DATA then STATS on one session", msgs: [][]byte{data(0, 100), stats(0), data(0, 5), stats(0)}},
		{name: "STATS then DATA on one session", msgs: [][]byte{stats(1), data(1, 64), data(1, 64), stats(1), stats(2)}},
		{name: "a CLOSE between DATA and STATS", msgs: [][]byte{data(2, 10), stats(2), data(2, 6), data(3, 4), closing(2), stats(3), data(3, 1)}},
		{name: "an OPEN takes the closed slot", msgs: [][]byte{data(4, 50), stats(4), closing(4), open, data(reopened, 7), stats(reopened), open}},
		{name: "TRACE-wrapped messages", msgs: [][]byte{traced(data(5, 9)), stats(5), traced(stats(6)), data(6, 3), data(5, 2), traced(closing(7)), stats(0)}},
		{name: "every session", msgs: everySession},
		{name: "a timed DATA overtakes a listed STATS", msgs: [][]byte{stats(5), traced(data(5, 11)), stats(5), data(5, 2), stats(5)}},
		{name: "DATA and STATS alternating across shards", msgs: alternating},
		{name: "an unowned ID mid-frame", msgs: [][]byte{data(0, 8), stats(1), data(1, 8), data(2, 3), data(reopened, 8), stats(2), data(0, 1)}, wantErr: true, bad: 4},
		{name: "negative bits mid-frame", msgs: [][]byte{stats(0), data(0, 5), stats(1), data(3, 6), data(1, 1<<63), stats(1)}, wantErr: true, bad: 4},
		// The ownership of what waits is checked before a timed DATA applies
		// on its own: it may not overtake the unowned ID read before it.
		{name: "an unowned ID before a traced DATA", msgs: [][]byte{data(0, 8), stats(1), data(reopened, 8), traced(data(1, 5)), stats(1)}, wantErr: true, bad: 2},
		{name: "another connection's session mid-frame", msgs: [][]byte{stats(2), data(0, 5), data(3, 7), stats(foreign), data(1, 4), stats(0)}, wantErr: true, bad: 3},
		// Index 13 would pick the fifth of four shards.
		{name: "an index past the table mid-frame", msgs: [][]byte{data(0, 8), stats(5), data(13, 8), stats(0)}, wantErr: true, bad: 2},
	}
	for _, shards := range []int{1, 4} {
		for _, every := range []int{1, 1024} {
			for _, tt := range tests {
				t.Run(fmt.Sprintf("shards=%d/every=%d/%s", shards, every, tt.name), func(t *testing.T) {
					batched, bcs := equivFixture(t, k, mine, shards, every)
					single, scs := equivFixture(t, k, mine, shards, every)
					var got, want bytes.Buffer
					err := batched.handleMessage(wireReader(batchFrame(len(tt.msgs), tt.msgs...)), &got, bcs)
					ref := tt.msgs
					if tt.wantErr {
						if !errors.Is(err, errProtocol) {
							t.Fatalf("frame: got %v, want errProtocol", err)
						}
						ref = ref[:tt.bad]
					} else if err != nil {
						t.Fatalf("frame: %v", err)
					}
					for _, m := range ref {
						if err := single.handleMessage(wireReader(m), &want, scs); err != nil {
							t.Fatalf("message %x alone: %v", m, err)
						}
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Errorf("replies\n batched   %x\n unbatched %x", got.Bytes(), want.Bytes())
					}
					if b, s := tableState(batched), tableState(single); b != s {
						t.Errorf("slot state\n batched   %+v\n unbatched %+v", b, s)
					}
					if b, s := ownedBy(batched, bcs), ownedBy(single, scs); !maps.Equal(b, s) {
						t.Errorf("owned: batched %v, unbatched %v", b, s)
					}
					if tt.wantErr {
						return // what the connection's last unit counted is moot
					}
					for typ, c := range single.m.messages {
						if b, s := batched.m.messages[typ].Value(), c.Value(); typ != int(typeBatch) && b != s {
							t.Errorf("message counter %d: batched %d, unbatched %d", typ, b, s)
						}
					}
					if n := batched.m.messages[typeBatch].Value(); n != 1 {
						t.Errorf("%d BATCH frames counted, want 1", n)
					}
				})
			}
		}
	}
}

// equivFixture is a gateway of k slots over the given shards, sampling 1
// in every, whose connection has opened the first mine sessions and
// another connection the rest (one unit each), has sent each a different
// number of bits and let two rounds serve part of them, so that STATS
// replies differ from session to session.
func equivFixture(t *testing.T, k, mine, shards, every int) (*Gateway, *connState) {
	g := newRounds(t, "phased", k, shards, 4)
	g.sampler = obs.NewSampler(uint64(every), g.m.connStripes)
	cs, other := g.getConnState(0, 0), g.getConnState(0, 0)
	for id := range k {
		owner := cs
		if id >= mine {
			owner = other
		}
		if err := g.handleMessage(wireReader(fuzzSeed(typeOpen)), io.Discard, owner); err != nil {
			t.Fatal(err)
		}
		if err := g.handleMessage(wireReader(fuzzSeed(typeData, uint64(id), uint64(40*id+90))), io.Discard, owner); err != nil {
			t.Fatal(err)
		}
	}
	g.round(0)
	g.round(1)
	return g, cs
}

// slotState is what a STATS reply, a round or a CLOSE can read of a slot.
type slotState struct {
	used                    bool
	pending, queued, served bw.Bits
	maxDelay                bw.Tick
	changes                 int
	rate                    bw.Rate
}

// tableView is the whole table's state, comparable with ==.
type tableView struct {
	slots   [12]slotState
	past    [4]sim.Tenancy
	tenants [4]int
}

// tableState reads the table of an equivFixture gateway.
func tableState(g *Gateway) (v tableView) {
	for _, sh := range g.shards {
		v.past[sh.idx], v.tenants[sh.idx] = sh.past, sh.slots.Tenants()
		for slot := range sh.slots.Len() {
			q := sh.slots.Queue(slot)
			v.slots[sh.index(slot)] = slotState{
				used: sh.slots.Seated(slot), pending: sh.slots.Pending(slot),
				queued: q.Bits(), served: q.Served(), maxDelay: q.MaxDelay(),
				changes: sh.slots.Changes(slot), rate: sh.slots.Rate(slot),
			}
		}
	}
	return v
}

// BenchmarkBatchFrames times handleMessage alone — no sockets — on the
// repository benchmark's live-100k shape: a 100 000-slot, 8-shard table
// with a registry, a span ring and the default sampler, one connection
// owning 50 000 sessions, and sessions drawn at random, the replies
// written to a buffered discard. A round runs every 200 operations,
// outside the timer, so the queues stay short. It is the place to bisect
// a change in what a frame costs the gateway. Each operation of
//   - split is a 64-DATA frame then a 64-STATS frame for the same 64
//     sessions, the load engine's shape;
//   - interleaved is one frame of 32 DATA,STATS pairs, each pair naming
//     one session.
func BenchmarkBatchFrames(b *testing.B) {
	const k, nshards, owned, frames = 100_000, 8, 50_000, 2000
	g := newRounds(b, "phased", k, nshards, 8)
	g.spans = obs.NewSpanRing(obs.DefaultSpanRingSize, StageNames())
	g.sampler = obs.NewSampler(obs.DefaultSampleEvery, g.m.connStripes)
	cs := g.getConnState(0, 0)
	src := bytes.NewReader(bytes.Repeat(fuzzSeed(typeOpen), owned))
	r := bufio.NewReaderSize(src, connReadBufSize)
	for range owned {
		if err := g.handleMessage(r, io.Discard, cs); err != nil {
			b.Fatal(err)
		}
	}
	ids := make([]uint32, 0, owned)
	for id := range ownedBy(g, cs) {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	rng := rand.New(rand.NewPCG(1, 2))
	var split, interleaved []byte
	for range frames {
		var data, stats [][]byte
		for range 64 {
			id := uint64(ids[rng.IntN(len(ids))])
			data, stats = append(data, fuzzSeed(typeData, id, 8)), append(stats, fuzzSeed(typeStats, id))
		}
		split = append(append(split, batchFrame(64, data...)...), batchFrame(64, stats...)...)
	}
	for range frames {
		var pairs [][]byte
		for range 32 {
			id := uint64(ids[rng.IntN(len(ids))])
			pairs = append(pairs, fuzzSeed(typeData, id, 8), fuzzSeed(typeStats, id))
		}
		interleaved = append(interleaved, batchFrame(64, pairs...)...)
	}
	w := bufio.NewWriterSize(io.Discard, connWriteBufSize)
	var tick bw.Tick
	run := func(stream []byte, units int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				if i%frames == 0 {
					src.Reset(stream)
					r.Reset(src)
				}
				for range units {
					if err := g.handleMessage(r, w, cs); err != nil {
						b.Fatal(err)
					}
				}
				w.Flush()
				if i%200 == 199 {
					b.StopTimer()
					g.round(tick)
					tick++
					b.StartTimer()
				}
			}
		}
	}
	b.Run("split", run(split, 2))
	b.Run("interleaved", run(interleaved, 1))
}
