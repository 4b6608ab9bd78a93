package gateway

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"time"

	"dynbw/internal/obs"
)

// startTraced launches a sharded gateway with a metrics registry and a
// span ring sampling every n-th message.
func startTraced(t *testing.T, k, nshards, sampleEvery int) (*Gateway, *manualTicks, *obs.Registry, *obs.SpanRing) {
	t.Helper()
	ticks := newManualTicks()
	reg := obs.NewRegistry()
	ring := obs.NewSpanRing(256, StageNames())
	ring.Instrument(reg)
	cfg := Config{
		Addr: "127.0.0.1:0", Slots: k, Ticks: ticks.ch,
		Metrics: reg, Spans: ring, SpanSampleEvery: sampleEvery,
		Shards: nshards, ShardAllocs: perSlotAllocs(nshards, k, 16),
	}
	g, err := NewWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, ticks, reg, ring
}

func TestSpanSamplingEndToEnd(t *testing.T) {
	g, _, reg, ring := startTraced(t, 4, 1, 1) // sample every message
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
	if err := m.Send(id, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stats(id); err != nil {
		t.Fatal(err)
	}
	if err := m.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	// All four exchanges have been answered, so their spans are pushed.
	spans := ring.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(spans), spans)
	}
	kinds := map[string]obs.Span{}
	for _, s := range spans {
		kinds[s.Kind] = s
	}
	for _, k := range []string{"open", "data", "stats", "close"} {
		s, ok := kinds[k]
		if !ok {
			t.Fatalf("no %s span in %+v", k, spans)
		}
		if s.Trace == 0 || s.Client {
			t.Errorf("%s span trace=%d client=%v, want local non-zero", k, s.Trace, s.Client)
		}
		if s.TotalNs <= 0 {
			t.Errorf("%s span total = %d", k, s.TotalNs)
		}
		var stagesSum int64
		for _, ns := range s.Stages {
			if ns < 0 {
				t.Errorf("%s span has negative stage: %v", k, s.Stages)
			}
			stagesSum += ns
		}
		if stagesSum <= 0 || stagesSum > s.TotalNs {
			t.Errorf("%s span stages sum %d vs total %d", k, stagesSum, s.TotalNs)
		}
		if s.Session != int(id) && k != "open" {
			t.Errorf("%s span session = %d, want %d", k, s.Session, id)
		}
	}
	// STATS holds the shard lock: its dispatch and apply stages are
	// marked, and the reply write is timed.
	st := kinds["stats"]
	if st.Stages[stageDispatch] <= 0 || st.Stages[stageApply] <= 0 || st.Stages[stageWrite] <= 0 {
		t.Errorf("stats span stages = %v, want dispatch/apply/write > 0", st.Stages)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, want := range []string{
		`dynbw_gateway_stage_ns_count{stage="read"}`,
		`dynbw_gateway_stage_ns_count{stage="dispatch"}`,
		`dynbw_gateway_stage_ns_count{stage="apply"}`,
		`dynbw_gateway_stage_ns_count{stage="write"}`,
		`dynbw_gateway_messages_total{type="trace"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

func TestSpanSamplingRate(t *testing.T) {
	g, _, _, ring := startTraced(t, 4, 1, 8) // every 8th message
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
	for i := 0; i < 31; i++ { // 32 messages total with the OPEN
		if err := m.Send(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Stats(id); err != nil { // flush: all DATA handled once replied
		t.Fatal(err)
	}
	if got := ring.Total(); got != 4 { // 33 messages / 8
		t.Errorf("sampled %d spans over 33 messages at 1-in-8, want 4", got)
	}
}

// TestTimedVersusCounted pins what the two kinds of instrument hold: the
// per-type message counters count every message, the latency histograms
// and the span ring hold the timed ones — 1 in SpanSampleEvery on the
// connection's stripe plus every client-traced message — and one sampler
// decision feeds both.
func TestTimedVersusCounted(t *testing.T) {
	const n = 64
	// exchange drives n batched DATA then n batched STATS over one
	// connection and returns what moved, then what one more STATS behind
	// a TRACE envelope moved.
	exchange := func(t *testing.T, sampleEvery int) (batch, traced map[string]int64) {
		g, _, reg, _ := startTraced(t, n, 1, sampleEvery)
		defer g.Close()
		m, err := DialMux(g.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ids := make([]uint32, n)
		items := make([]BatchItem, n)
		for i := range ids {
			if ids[i], err = m.Open(); err != nil {
				t.Fatal(err)
			}
			items[i] = BatchItem{Session: ids[i], Bits: 8}
		}
		moved := func(before map[string]int64) map[string]int64 {
			d := reg.Snapshot()
			for k, v := range before {
				d[k] -= v
			}
			return d
		}
		before := reg.Snapshot()
		if err := m.SendBatch(items); err != nil {
			t.Fatal(err)
		}
		// The replies are flushed after the frame's last message is
		// handled, so once they are read every message has been counted.
		if _, err := m.StatsBatch(ids); err != nil {
			t.Fatal(err)
		}
		batch = moved(before)
		before = reg.Snapshot()
		m.TraceEvery(1)
		if _, err := m.Stats(ids[0]); err != nil {
			t.Fatal(err)
		}
		return batch, moved(before)
	}
	stageCount := func(stage string) string {
		return `dynbw_gateway_stage_ns{stage="` + stage + `"}:count`
	}
	const (
		dataMsgs  = `dynbw_gateway_messages_total{type="data"}`
		statsMsgs = `dynbw_gateway_messages_total{type="stats"}`
		traceMsgs = `dynbw_gateway_messages_total{type="trace"}`
		timed     = "dynbw_gateway_exchange_latency_ns:count"
		spans     = "dynbw_spans_total"
	)

	batch, traced := exchange(t, 4)
	for key, want := range map[string]int64{dataMsgs: n, statsMsgs: n, traceMsgs: 0, timed: 2 * n / 4, spans: 2 * n / 4} {
		if batch[key] != want {
			t.Errorf("1-in-4, %d DATA + %d STATS: %s moved by %d, want %d", n, n, key, batch[key], want)
		}
	}
	// A stage histogram holds at most the timed messages. Apply is also
	// where flush records the DATA frame's one shard list (the 48 untimed
	// DATA, applied under one lock); a list of STATS alone is not
	// observed.
	for stage, limit := range map[string]int64{"read": 2 * n / 4, "dispatch": 2 * n / 4, "apply": 2*n/4 + 1, "write": 2 * n / 4} {
		if got := batch[stageCount(stage)]; got < 1 || got > limit {
			t.Errorf("1-in-4: stage %s gained %d observations, want 1..%d", stage, got, limit)
		}
	}
	for key, want := range map[string]int64{dataMsgs: 0, statsMsgs: 1, traceMsgs: 1, timed: 1, spans: 1} {
		if traced[key] != want {
			t.Errorf("one client-traced STATS: %s moved by %d, want %d", key, traced[key], want)
		}
	}

	batch, _ = exchange(t, 1)
	for key, want := range map[string]int64{dataMsgs: n, statsMsgs: n, timed: 2 * n, spans: 2 * n} {
		if batch[key] != want {
			t.Errorf("1-in-1, %d DATA + %d STATS: %s moved by %d, want %d", n, n, key, batch[key], want)
		}
	}
}

func TestClientTraceEnvelope(t *testing.T) {
	// Sampling period far above the message count: every span must come
	// from the client's TRACE envelopes, not local sampling.
	g, _, _, ring := startTraced(t, 4, 1, 1<<20)
	defer g.Close()
	m, err := DialMux(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.TraceEvery(2) // every second request carries an envelope
	id, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Send(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Stats(id); err != nil {
		t.Fatal(err)
	}
	// 5 requests, envelopes on the 2nd and 4th.
	spans := ring.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 client-traced: %+v", len(spans), spans)
	}
	for _, s := range spans {
		if !s.Client {
			t.Errorf("span %+v not marked client-traced", s)
		}
		if s.Trace>>63 != 1 {
			t.Errorf("client trace ID %x missing the top bit", s.Trace)
		}
		if s.Kind != "data" {
			t.Errorf("span kind = %q, want data (envelopes ride requests 2 and 4)", s.Kind)
		}
	}
}

func TestNestedTraceEnvelopeIsProtocolViolation(t *testing.T) {
	g := newBare(4)
	cs := g.getConnState(0, 0)
	var in bytes.Buffer
	in.WriteByte(typeTrace)
	var tb [8]byte
	binary.BigEndian.PutUint64(tb[:], 7)
	in.Write(tb[:])
	in.WriteByte(typeTrace) // nested envelope
	in.Write(tb[:])
	err := g.handleMessage(wireReader(in.Bytes()), io.Discard, cs)
	if err == nil || !strings.Contains(err.Error(), "TRACE") {
		t.Fatalf("nested envelope error = %v", err)
	}
}

func TestTickProfilingMetrics(t *testing.T) {
	ticks := newManualTicks()
	reg := obs.NewRegistry()
	cfg := Config{
		Addr: "127.0.0.1:0", Slots: 8, Shards: 4, Ticks: ticks.ch,
		Metrics: reg, TickBudget: time.Nanosecond, // every round overruns
		ShardAllocs: perSlotAllocs(4, 8, 16),
	}
	g, err := NewWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 3; i++ {
		ticks.tick()
	}
	ticks.tick() // guarantees the first three rounds completed
	snap := reg.Snapshot()
	if c := snap["dynbw_gateway_tick_round_ns:count"]; c < 3 {
		t.Errorf("tick_round count = %d, want >= 3", c)
	}
	if c := snap["dynbw_gateway_tick_join_wait_ns:count"]; c < 3 {
		t.Errorf("join_wait count = %d, want >= 3", c)
	}
	if c := snap["dynbw_gateway_tick_overruns_total"]; c < 3 {
		t.Errorf("tick_overruns = %d with a 1ns budget, want >= 3", c)
	}
	if v := snap["dynbw_gateway_tick_imbalance_permille"]; v < 0 {
		t.Errorf("imbalance = %d", v)
	}
	for shard := 0; shard < 4; shard++ {
		key := `dynbw_gateway_shard_tick_ns{shard="` + string(rune('0'+shard)) + `"}:count`
		if c := snap[key]; c < 3 {
			t.Errorf("%s = %d, want >= 3", key, c)
		}
	}
}

func TestProfileSnapshot(t *testing.T) {
	g, ticks, reg, _ := startTraced(t, 4, 2, 1)
	defer g.Close()
	m, err := DialMux(g.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// One backlogged session on each shard (perSlotAlloc serves 16 a
	// tick): the active-slots gauge is the shards' levels summed.
	for i := 0; i < 4; i++ {
		id, err := m.Open()
		if err != nil {
			t.Fatal(err)
		}
		if id == 0 || id == 2 {
			if err := m.Send(id, 1000); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Stats(0); err != nil { // barrier: the DATA is applied
		t.Fatal(err)
	}
	ticks.tick()
	ticks.tick()
	p := g.Profile()
	if got := reg.Snapshot()["dynbw_gateway_active_slots"]; p.ActiveSlots != 2 || got != 2 {
		t.Errorf("active slots: profile %d, gauge %d, want 2 (one backlogged session per shard)", p.ActiveSlots, got)
	}
	if len(p.StageNames) != numStages || len(p.Stages) != numStages {
		t.Fatalf("profile stages: %d names, %d histograms", len(p.StageNames), len(p.Stages))
	}
	if p.Exchange.Count() < 1 {
		t.Errorf("exchange count = %d, want >= 1", p.Exchange.Count())
	}
	if p.Stages[stageApply].Count() < 1 {
		t.Errorf("apply stage count = %d (OPEN marks apply)", p.Stages[stageApply].Count())
	}
	if len(p.ShardTicks) != 2 {
		t.Fatalf("shard ticks = %d, want 2", len(p.ShardTicks))
	}
	if p.TickRound.Count() < 1 {
		t.Errorf("tick round count = %d", p.TickRound.Count())
	}
}

// TestHandleMessageUnsampledZeroAlloc is the overhead contract of the
// wire path: an unbatched DATA and a STATS exchange allocate nothing on a
// bare gateway, and nothing with metrics and a default-rate sampler
// attached when the message does not get sampled — the span scratch lives
// in connState and the stage clock is plain time arithmetic.
func TestHandleMessageUnsampledZeroAlloc(t *testing.T) {
	for _, msg := range [][]byte{fuzzSeed(typeData, 0, 64), fuzzSeed(typeStats, 0)} {
		if base, got := unitAllocs(t, newBare(4), msg), unitAllocs(t, newInstrumented(4), msg); base != 0 || got != 0 {
			t.Errorf("message type %d allocates %.2f/op bare and %.2f/op instrumented, want 0 and 0", msg[0], base, got)
		}
	}
}
