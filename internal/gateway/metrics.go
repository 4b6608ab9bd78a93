package gateway

import (
	"runtime"
	"strconv"

	"dynbw/internal/metrics"
	"dynbw/internal/obs"
)

// gwMetrics holds the gateway's registered instruments. The hot-path
// ones, touched by handlers and tick workers, have a stripe per shard or
// per connection stripe, merged at scrape time, so concurrent shards
// never contend on a metrics cache line or mutex; the rest have one
// stripe and are updated on stripe 0. With no registry attached every
// field is nil, and the nil-safe instrument methods make each hot-path
// update a no-op.
type gwMetrics struct {
	accepts      *obs.Counter
	acceptErrors *obs.Counter
	// messages is indexed by the wire type byte (msgIndex); every index
	// without a label in typeNames holds the one "unknown" series.
	messages     [typeBatch + 1]*obs.Counter
	errors       map[string]*obs.Counter
	openFails    *obs.Counter
	sessions     *obs.Gauge
	conns        *obs.Gauge
	ticks        *obs.Counter
	arrivedBits  *obs.Counter
	servedBits   *obs.Counter
	allocChanges *obs.Counter
	// policedBits counts arrivals dropped because a slot's pending cell
	// (handlers, on their connection stripe) or queue (the round, on its
	// shard stripe) stood at sim.MaxBacklog.
	policedBits *obs.Counter
	// closedBits counts bits dropped by sessions ending, by shard stripe.
	closedBits *obs.Counter
	// activeSlots is the number of slots the last round visited, one
	// level per shard: the k that actually has work.
	activeSlots *obs.Gauge
	// exchange and stages hold the timed messages only — 1 in
	// Config.SpanSampleEvery per connection stripe plus every
	// client-traced one (trace.go) — so their counts are messages timed;
	// messages counts the messages handled. exchange is the whole
	// message, stages the wire-path pipeline by stage
	// (read/dispatch/apply/write); the apply stage also takes one
	// observation per shard list holding DATA in a BATCH frame (flush).
	exchange *obs.Histogram
	stages   [numStages]*obs.Histogram
	// tickShard times each shard's allocation round, in the timed rounds
	// (roundSampleEvery) as the three beside it; its stripes double as
	// the per-shard dynbw_gateway_shard_tick_ns series.
	tickShard    *obs.Histogram
	tickRound    *obs.Histogram // whole round, fan-out to join
	joinWait     *obs.Histogram // slowest minus fastest shard per round
	imbalance    *obs.Gauge     // EWMA max/mean shard duration, permille
	tickOverruns *obs.Counter   // rounds exceeding Config.TickBudget
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
	m.accepts = reg.Counter("dynbw_gateway_accepts_total", "Connections accepted.", 1)
	m.acceptErrors = reg.Counter("dynbw_gateway_accept_errors_total", "Accept failures (each backs off the accept loop).", 1)
	for t := range m.messages {
		m.messages[t] = reg.Counter("dynbw_gateway_messages_total", "Wire messages handled, by type.",
			m.connStripes, obs.L("type", typeName(byte(t))))
	}
	m.errors = map[string]*obs.Counter{}
	for _, class := range []string{errClassEOF, errClassTimeout, errClassProtocol, errClassIO} {
		m.errors[class] = reg.Counter("dynbw_gateway_errors_total", "Connection handler terminations, by class.", 1, obs.L("class", class))
	}
	m.openFails = reg.Counter("dynbw_gateway_open_fails_total", "OPEN requests rejected with OPENFAIL (slot exhaustion).", 1)
	m.sessions = reg.Gauge("dynbw_gateway_active_sessions", "Session slots currently open.", 1)
	m.conns = reg.Gauge("dynbw_gateway_active_conns", "TCP connections currently served.", 1)
	m.ticks = reg.Counter("dynbw_gateway_ticks_total", "Allocation rounds run.", 1)
	m.arrivedBits = reg.Counter("dynbw_gateway_arrived_bits_total", "Bits accepted into session queues.", stripes)
	m.servedBits = reg.Counter("dynbw_gateway_served_bits_total", "Bits served out of session queues.", stripes)
	m.allocChanges = reg.Counter("dynbw_gateway_allocation_changes_total",
		"Per-session bandwidth allocation changes — the paper's cost measure, live.",
		stripes, obs.L("policy", policy))
	m.policedBits = reg.Counter("dynbw_gateway_policed_bits_total",
		"Arrived bits dropped because the session's backlog stood at the per-slot cap.",
		m.connStripes)
	m.closedBits = reg.Counter("dynbw_gateway_closed_bits_total",
		"Bits dropped undelivered because their session ended (CLOSE or connection death) with them pending or queued.",
		stripes)
	m.activeSlots = reg.Gauge("dynbw_gateway_active_slots",
		"Slots the last allocation round visited: those with arrivals or queued bits.",
		stripes)
	m.exchange = reg.Histogram("dynbw_gateway_exchange_latency_ns",
		"Handling latency of the timed messages (1 in the sampling period, plus client-traced ones), first byte read to reply written, nanoseconds.",
		m.connStripes)
	for i := range m.stages {
		m.stages[i] = reg.Histogram("dynbw_gateway_stage_ns",
			"Wire-path stage latency of the timed messages, nanoseconds, by pipeline stage.",
			m.connStripes, obs.L("stage", stageNames[i]))
	}
	// The round profile holds the timed rounds only (roundSampleEvery).
	timed := "over the timed rounds (1 in " + strconv.Itoa(roundSampleEvery) + "; the count is rounds timed)"
	m.tickShard = obs.NewHistogram(stripes)
	for i := 0; i < stripes; i++ {
		i := i
		reg.HistogramFunc("dynbw_gateway_shard_tick_ns",
			"Allocation-round duration per shard, nanoseconds, "+timed+".",
			func() metrics.Histogram { return m.tickShard.StripeSnapshot(i) },
			obs.L("shard", strconv.Itoa(i)))
	}
	m.tickRound = reg.Histogram("dynbw_gateway_tick_round_ns",
		"Whole allocation-round duration (fan-out to join), nanoseconds, "+timed+".", 1)
	m.joinWait = reg.Histogram("dynbw_gateway_tick_join_wait_ns",
		"Straggler wait per round: slowest minus fastest shard, nanoseconds (sharded only), "+timed+".", 1)
	m.imbalance = reg.Gauge("dynbw_gateway_tick_imbalance_permille",
		"EWMA of slowest-shard round duration over the mean, permille (1000 = balanced), over the timed rounds.", 1)
	m.tickOverruns = reg.Counter("dynbw_gateway_tick_overruns_total",
		"Allocation rounds that exceeded the configured tick budget.", 1)
	const roundsHelp = "Allocation rounds by the path they took: run by the tick loop itself (a small round, or a one-shard gateway), or fanned out to the tick workers."
	m.roundsInline = reg.Counter("dynbw_gateway_tick_rounds_total", roundsHelp, 1, obs.L("path", "inline"))
	m.roundsFanout = reg.Counter("dynbw_gateway_tick_rounds_total", roundsHelp, 1, obs.L("path", "fanout"))
	const panicsHelp = "Panics contained: under a shard's allocation round (that shard's round is abandoned) or in a connection handler (the connection is dropped)."
	m.roundPanics = reg.Counter("dynbw_gateway_panics_total", panicsHelp, 1, obs.L("where", "round"))
	m.handlerPanics = reg.Counter("dynbw_gateway_panics_total", panicsHelp, 1, obs.L("where", "handler"))
	return m
}

// typeNames labels the wire type bytes a client sends: span kinds,
// refused errors and the messages_total{type} series read it. "" is
// "unknown": a reply's byte, which no client sends, or no type at all.
var typeNames = [typeBatch + 1]string{
	typeOpen: "open", typeData: "data", typeStats: "stats",
	typeClose: "close", typeTrace: "trace", typeBatch: "batch",
}

// typeName returns a wire type byte's label, "unknown" for one without.
func typeName(t byte) string {
	if name := typeNames[msgIndex(t)]; name != "" {
		return name
	}
	return "unknown"
}

// msgIndex maps a wire type byte to its index in typeNames,
// gwMetrics.messages and connState.counts: the byte itself, or 0 past
// the last type.
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
			m.messages[t].Add(stripe, n)
			counts[t] = 0
		}
	}
}
