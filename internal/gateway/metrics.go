package gateway

import (
	"runtime"
	"strconv"

	"dynbw/internal/metrics"
	"dynbw/internal/obs"
)

// gwMetrics holds the gateway's registered instruments. Hot-path
// counters touched by handlers and tick workers are lock-striped per
// shard (obs.Striped / obs.StripedHistogram) and exported through
// CounterFunc/HistogramFunc, which merge the stripes at scrape time —
// so concurrent shards never contend on a metrics mutex. With no
// registry attached every field is nil, and the nil-safe instrument
// methods make each hot-path update a no-op.
type gwMetrics struct {
	accepts      *obs.Counter
	acceptErrors *obs.Counter
	// messages is indexed by the wire type byte (msgIndex); index 0 is the
	// "unknown" series, which every type without a label shares.
	messages     [typeBatch + 1]*obs.Striped
	errors       map[string]*obs.Counter
	openFails    *obs.Counter
	sessions     *obs.Gauge
	conns        *obs.Gauge
	ticks        *obs.Counter
	arrivedBits  *obs.Striped
	servedBits   *obs.Striped
	allocChanges *obs.Striped
	// policedBits counts arrivals dropped because a slot's pending cell
	// (handlers, on their connection stripe) or queue (the round, on its
	// shard stripe) stood at sim.MaxBacklog.
	policedBits *obs.Striped
	// closedBits counts bits dropped by sessions ending, by shard stripe.
	closedBits *obs.Striped
	// activeSlots is the number of slots the last round visited, one
	// level per shard: the k that actually has work.
	activeSlots *obs.StripedGauge
	// exchange and stages hold the timed messages only — 1 in
	// Config.SpanSampleEvery per connection stripe plus every
	// client-traced one (trace.go) — so their counts are messages timed;
	// messages counts the messages handled. exchange is the whole
	// message, stages the wire-path pipeline by stage
	// (read/dispatch/apply/write); the apply stage also takes one
	// observation per shard list holding DATA in a BATCH frame (flush).
	exchange *obs.StripedHistogram
	stages   [numStages]*obs.StripedHistogram
	// tickShard times each shard's allocation round; its stripes double
	// as the per-shard dynbw_gateway_shard_tick_ns series.
	tickShard    *obs.StripedHistogram
	tickRound    *obs.LiveHistogram // whole round, fan-out to join
	joinWait     *obs.LiveHistogram // slowest minus fastest shard per round
	imbalance    *obs.Gauge         // EWMA max/mean shard duration, permille
	tickOverruns *obs.Counter       // rounds exceeding Config.TickBudget
	// roundsInline and roundsFanout count the rounds by the path they
	// took (Gateway.round); tick-loop only, and they sum to ticks.
	roundsInline, roundsFanout *obs.Counter
	// roundPanics and handlerPanics count the panics contained: under a
	// shard's allocation round, and in a connection handler.
	roundPanics, handlerPanics *obs.Counter
	// connStripes is the stripe count of the connection-keyed instruments
	// (messages, exchange, stages, the sampler) — at least the shard
	// count, but padded up to the core count so a single-shard gateway's
	// connections do not all contend on one stripe.
	connStripes int
}

// connStripeCount pads the shard count up to GOMAXPROCS (capped at 16)
// for connection-keyed instruments: shard-keyed instruments need exactly
// one stripe per shard, but handler-side updates contend per connection,
// not per shard.
func connStripeCount(shards int) int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	if n < shards {
		n = shards
	}
	return n
}

func newGWMetrics(reg *obs.Registry, policy string, stripes int) *gwMetrics {
	m := &gwMetrics{connStripes: connStripeCount(stripes)}
	if reg == nil {
		return m
	}
	if policy == "" {
		policy = "unknown"
	}
	m.accepts = reg.Counter("dynbw_gateway_accepts_total", "Connections accepted.")
	m.acceptErrors = reg.Counter("dynbw_gateway_accept_errors_total", "Accept failures (each backs off the accept loop).")
	for _, mt := range []struct {
		typ   byte
		label string
	}{
		{typeOpen, "open"},
		{typeData, "data"},
		{typeStats, "stats"},
		{typeClose, "close"},
		{typeTrace, "trace"},
		{typeBatch, "batch"},
		{0, "unknown"},
	} {
		s := obs.NewStriped(m.connStripes)
		reg.CounterFunc("dynbw_gateway_messages_total", "Wire messages handled, by type.", s.Value, obs.L("type", mt.label))
		m.messages[mt.typ] = s
	}
	m.errors = map[string]*obs.Counter{}
	for _, class := range []string{errClassEOF, errClassTimeout, errClassProtocol, errClassIO} {
		m.errors[class] = reg.Counter("dynbw_gateway_errors_total", "Connection handler terminations, by class.", obs.L("class", class))
	}
	m.openFails = reg.Counter("dynbw_gateway_open_fails_total", "OPEN requests rejected with OPENFAIL (slot exhaustion).")
	m.sessions = reg.Gauge("dynbw_gateway_active_sessions", "Session slots currently open.")
	m.conns = reg.Gauge("dynbw_gateway_active_conns", "TCP connections currently served.")
	m.ticks = reg.Counter("dynbw_gateway_ticks_total", "Allocation rounds run.")
	m.arrivedBits = obs.NewStriped(stripes)
	reg.CounterFunc("dynbw_gateway_arrived_bits_total", "Bits accepted into session queues.", m.arrivedBits.Value)
	m.servedBits = obs.NewStriped(stripes)
	reg.CounterFunc("dynbw_gateway_served_bits_total", "Bits served out of session queues.", m.servedBits.Value)
	m.allocChanges = obs.NewStriped(stripes)
	reg.CounterFunc("dynbw_gateway_allocation_changes_total",
		"Per-session bandwidth allocation changes — the paper's cost measure, live.",
		m.allocChanges.Value, obs.L("policy", policy))
	m.policedBits = obs.NewStriped(m.connStripes)
	reg.CounterFunc("dynbw_gateway_policed_bits_total",
		"Arrived bits dropped because the session's backlog stood at the per-slot cap.",
		m.policedBits.Value)
	m.closedBits = obs.NewStriped(stripes)
	reg.CounterFunc("dynbw_gateway_closed_bits_total",
		"Bits dropped undelivered because their session ended (CLOSE or connection death) with them pending or queued.",
		m.closedBits.Value)
	m.activeSlots = obs.NewStripedGauge(stripes)
	reg.GaugeFunc("dynbw_gateway_active_slots",
		"Slots the last allocation round visited: those with arrivals or queued bits.",
		m.activeSlots.Value)
	m.exchange = obs.NewStripedHistogram(m.connStripes)
	reg.HistogramFunc("dynbw_gateway_exchange_latency_ns",
		"Handling latency of the timed messages (1 in the sampling period, plus client-traced ones), first byte read to reply written, nanoseconds.",
		m.exchange.Snapshot)
	for i := 0; i < numStages; i++ {
		h := obs.NewStripedHistogram(m.connStripes)
		reg.HistogramFunc("dynbw_gateway_stage_ns",
			"Wire-path stage latency of the timed messages, nanoseconds, by pipeline stage.",
			h.Snapshot, obs.L("stage", stageNames[i]))
		m.stages[i] = h
	}
	m.tickShard = obs.NewStripedHistogram(stripes)
	for i := 0; i < stripes; i++ {
		i := i
		reg.HistogramFunc("dynbw_gateway_shard_tick_ns",
			"Allocation-round duration per shard, nanoseconds.",
			func() metrics.Histogram { return m.tickShard.StripeSnapshot(i) },
			obs.L("shard", strconv.Itoa(i)))
	}
	m.tickRound = reg.Histogram("dynbw_gateway_tick_round_ns",
		"Whole allocation-round duration (fan-out to join), nanoseconds.")
	m.joinWait = reg.Histogram("dynbw_gateway_tick_join_wait_ns",
		"Straggler wait per round: slowest minus fastest shard, nanoseconds (sharded only).")
	m.imbalance = reg.Gauge("dynbw_gateway_tick_imbalance_permille",
		"EWMA of slowest-shard round duration over the mean, permille (1000 = balanced).")
	m.tickOverruns = reg.Counter("dynbw_gateway_tick_overruns_total",
		"Allocation rounds that exceeded the configured tick budget.")
	const roundsHelp = "Allocation rounds by the path they took: run by the tick loop itself (a small round, or a one-shard gateway), or fanned out to the tick workers."
	m.roundsInline = reg.Counter("dynbw_gateway_tick_rounds_total", roundsHelp, obs.L("path", "inline"))
	m.roundsFanout = reg.Counter("dynbw_gateway_tick_rounds_total", roundsHelp, obs.L("path", "fanout"))
	const panicsHelp = "Panics contained: under a shard's allocation round (that shard's round is abandoned) or in a connection handler (the connection is dropped)."
	m.roundPanics = reg.Counter("dynbw_gateway_panics_total", panicsHelp, obs.L("where", "round"))
	m.handlerPanics = reg.Counter("dynbw_gateway_panics_total", panicsHelp, obs.L("where", "handler"))
	return m
}

// message returns the striped counter for a wire message type — the
// "unknown" series for a byte without one of its own; nil (a no-op) with
// no registry attached.
func (m *gwMetrics) message(t byte) *obs.Striped {
	if int(t) < len(m.messages) && m.messages[t] != nil {
		return m.messages[t]
	}
	return m.messages[0]
}

// msgIndex maps a wire type byte to its index in gwMetrics.messages and
// connState.counts: the byte itself, or 0 past the last type.
func msgIndex(t byte) int {
	if t <= typeBatch {
		return int(t)
	}
	return 0
}

// count adds a unit's per-type message tallies to the counters, one
// striped add per type present, and clears them.
func (m *gwMetrics) count(stripe int, counts *[typeBatch + 1]int64) {
	for t, n := range counts {
		if n != 0 {
			m.message(byte(t)).Add(stripe, n)
			counts[t] = 0
		}
	}
}
