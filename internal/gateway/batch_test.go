package gateway

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
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

// sendN submits a sequence of payloads to c's session through its Mux's
// SendBatch, as BATCH frames of DATA messages.
func sendN(c *Client, bits []bw.Bits) error {
	items := make([]BatchItem, len(bits))
	for i, b := range bits {
		items[i] = BatchItem{Session: c.session, Bits: b}
	}
	return c.m.SendBatch(items)
}

// TestClientSendNRoundTrip: a batched single-session sender's bits land
// on the gateway exactly like the same bits sent one DATA at a time.
func TestClientSendNRoundTrip(t *testing.T) {
	g, ticks := startGateway(t, 2)
	defer g.Close()
	c, err := DialSession(g.Addr(), time.Second)
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
	if err := sendN(c, bits); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil { // sync: batch fully applied
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		ticks.tick()
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Served+st.Queued != want {
		t.Errorf("served %d + queued %d != %d", st.Served, st.Queued, want)
	}

	if err := sendN(c, nil); err != nil {
		t.Errorf("empty SendBatch: %v", err)
	}
	if err := sendN(c, []bw.Bits{1, -1}); err == nil {
		t.Error("negative payload accepted")
	}
}

// TestClientSendNSplitsFrames: MaxBatch+1 payloads do not fit one BATCH
// frame; the split (Mux.SendBatch's) must land every bit.
func TestClientSendNSplitsFrames(t *testing.T) {
	g, _ := startGateway(t, 2)
	defer g.Close()
	c, err := DialSession(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bits := make([]bw.Bits, MaxBatch+1)
	for i := range bits {
		bits[i] = 3
	}
	if err := sendN(c, bits); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil { // sync: both frames applied
		t.Fatal(err)
	}
	if err := c.Release(); err != nil {
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
		if err := g.handleMessage(bytes.NewReader(batchFrame(0)), io.Discard, cs); err != nil {
			t.Fatalf("empty batch: %v", err)
		}
	})
	t.Run("truncated count is a read error", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		err := g.handleMessage(bytes.NewReader([]byte{typeBatch, 0}), io.Discard, cs)
		if err == nil || errors.Is(err, errProtocol) {
			t.Fatalf("truncated count: got %v, want plain read error", err)
		}
	})
	t.Run("oversized count is a protocol violation", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		err := g.handleMessage(bytes.NewReader([]byte{typeBatch, 0xff, 0xff}), io.Discard, cs)
		if !errors.Is(err, errProtocol) {
			t.Fatalf("count 0xffff: got %v, want errProtocol", err)
		}
	})
	t.Run("nested batch is a protocol violation", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		err := g.handleMessage(bytes.NewReader(batchFrame(1, batchFrame(0))), io.Discard, cs)
		if !errors.Is(err, errProtocol) {
			t.Fatalf("nested batch: got %v, want errProtocol", err)
		}
	})
	t.Run("trace wrapping batch is a protocol violation", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		in := append([]byte{typeTrace, 0, 0, 0, 0, 0, 0, 0, 1}, batchFrame(0)...)
		err := g.handleMessage(bytes.NewReader(in), io.Discard, cs)
		if !errors.Is(err, errProtocol) {
			t.Fatalf("TRACE-wrapped batch: got %v, want errProtocol", err)
		}
	})
	t.Run("mixed open and data applies", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		var w bytes.Buffer
		in := batchFrame(3, open, data, data)
		if err := g.handleMessage(bytes.NewReader(in), &w, cs); err != nil {
			t.Fatal(err)
		}
		if _, ok := cs.owned[0]; !ok {
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
		// The ordering barrier: CLOSE (non-DATA) must flush the pending
		// group before releasing the slot, or the DATA would land on a
		// freed (or worse, re-opened) slot.
		g := newBare(4)
		cs := g.getConnState(0, 0)
		in := batchFrame(3, open, data, fuzzSeed(typeClose, 0))
		if err := g.handleMessage(bytes.NewReader(in), io.Discard, cs); err != nil {
			t.Fatal(err)
		}
		if len(cs.owned) != 0 {
			t.Fatalf("owned = %v after CLOSE", cs.owned)
		}
		sh := g.shards[0]
		if sh.inUse != 0 {
			t.Errorf("inUse = %d after CLOSE", sh.inUse)
		}
		if got := sh.past.Dropped; got != 64 {
			t.Errorf("CLOSE dropped %d bits, want the 64 applied before release", got)
		}
		if got := sh.slots.Pending(0); got != 0 {
			t.Errorf("pending[0] = %d on a free slot", got)
		}
	})
	t.Run("mid-batch error discards unapplied groups", func(t *testing.T) {
		g := newBare(4)
		cs := g.getConnState(0, 0)
		bad := fuzzSeed(typeData, 3, 64) // unowned session
		in := batchFrame(3, open, data, bad)
		err := g.handleMessage(bytes.NewReader(in), io.Discard, cs)
		if !errors.Is(err, errProtocol) {
			t.Fatalf("got %v, want errProtocol", err)
		}
		// The connection dies; the batched-but-unflushed DATA must not
		// leak into the next connection that reuses the state.
		g.putConnState(cs)
		cs2 := g.getConnState(0, 0)
		for i, grp := range cs2.groups {
			if len(grp) != 0 {
				t.Errorf("recycled connState carries %d pending adds for shard %d", len(grp), i)
			}
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

// TestHandleBatchDataZeroAlloc is the batched-path overhead contract:
// with metrics, sampler, and span ring attached, a 64-DATA BATCH frame
// whose messages are not sampled must not allocate at all relative to
// the uninstrumented gateway — groups, span scratch, and buffers all
// live in the pooled connState.
func TestHandleBatchDataZeroAlloc(t *testing.T) {
	bare := newBare(4)
	instr := newBare(4)
	instr.m = newGWMetrics(obs.NewRegistry(), "test", 1)
	instr.spans = obs.NewSpanRing(64, StageNames())
	instr.sampler = obs.NewSampler(obs.DefaultSampleEvery, 1)

	const n = 64
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = fuzzSeed(typeData, 0, 64)
	}
	frame := batchFrame(n, msgs...)
	measure := func(g *Gateway) float64 {
		cs := g.getConnState(0, 0)
		cs.owned[0] = struct{}{}
		g.shards[0].used.Add(0)
		g.shards[0].inUse = 1
		r := bytes.NewReader(nil)
		return testing.AllocsPerRun(512, func() {
			r.Reset(frame)
			if err := g.handleMessage(r, io.Discard, cs); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(bare)
	got := measure(instr)
	if base > 0 {
		t.Errorf("bare batched DATA allocates %.2f/op, want 0", base)
	}
	if got > base {
		t.Errorf("instrumented batched DATA allocates %.2f/op vs %.2f/op bare; instrumentation must add 0", got, base)
	}
}
