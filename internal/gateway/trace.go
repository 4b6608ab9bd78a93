package gateway

import (
	"time"

	"dynbw/internal/metrics"
	"dynbw/internal/obs"
)

// trace.go is the gateway's wire-path instrumentation: one stage clock,
// run for timed messages only. A message is timed when the 1-in-N
// sampler (Config.SpanSampleEvery) picks it or when the client sent it
// behind a TRACE envelope; a timed message feeds the
// dynbw_gateway_exchange_latency_ns and dynbw_gateway_stage_ns
// histograms and, with a span ring attached, pushes one span — the same
// decision serves both. An untimed message reads no clock and takes no
// histogram mutex: it pays its share of the sampler's striped atomic add
// (one a wire unit, whatever its message count), one position test and
// one bool check per stage boundary, and nothing is allocated either way
// — the scratch state lives inside connState, allocated once per
// connection. The per-type message counters are not part of this: they
// count every message.

// Wire-path stages, in pipeline order. Every message visits a subset:
// read (body bytes off the wire), dispatch (session validation, shard
// lookup and shard-mutex wait — the contention signal), apply (state
// mutation under the shard lock, or the slot claim/release for
// OPEN/CLOSE), write (reply bytes onto the wire).
const (
	stageRead = iota
	stageDispatch
	stageApply
	stageWrite
	numStages
)

// stageNames labels the stage histograms and span stage vectors, indexed
// by the stage constants.
var stageNames = [numStages]string{"read", "dispatch", "apply", "write"}

// StageNames returns the gateway's wire-path stage labels in pipeline
// order — the stage vector layout of every span the gateway records, fit
// for obs.NewSpanRing.
func StageNames() []string {
	return append([]string(nil), stageNames[:]...)
}

// spanScratch is the per-connection stage clock and span under
// construction. It is embedded in connState so arming it never
// allocates; one scratch is live per connection because handleMessage
// exchanges are serialized per connection.
type spanScratch struct {
	sampled bool   // current message is timed: stage clock armed
	client  bool   // trace ID arrived in a TRACE envelope
	trace   uint64 // span identity
	kind    byte   // wire type of the current message
	sess    int    // session the message named, -1 when none
	start   time.Time
	last    time.Time // previous stage boundary
	// stages uses the span layout directly (MaxSpanStages >= numStages)
	// so spanEnd copies it into the ring without repacking.
	stages [obs.MaxSpanStages]int64
}

// pendingTrace holds a client-sent TRACE envelope between the envelope
// read and the inner message; set distinguishes an explicit zero ID from
// no envelope.
type pendingTrace struct {
	id  uint64
	set bool
}

// spanDecide decides whether the unit's next message is timed: when the
// client sent a TRACE envelope for it (the peer asked, so it bypasses the
// sampler), or when the sampler selects the message's position — every
// message takes one, a client-traced one too. With neither metrics nor a
// span ring attached there is no sampler and nothing is ever timed.
func (g *Gateway) spanDecide(cs *connState) bool {
	sp := &cs.span
	switch {
	case cs.pending.set:
		sp.trace, sp.client, sp.sampled = cs.pending.id, true, g.sampler != nil
		cs.pending = pendingTrace{}
	case g.sampler.At(cs.sample):
		sp.trace, sp.client, sp.sampled = g.spans.NextTrace(cs.mstripe), false, true
	default:
		sp.sampled = false
	}
	return sp.sampled
}

// spanBegin arms the stage clock of a timed message.
func (g *Gateway) spanBegin(cs *connState, typ byte) {
	sp := &cs.span
	if !sp.sampled {
		return
	}
	sp.kind = typ
	sp.sess = -1
	sp.stages = [obs.MaxSpanStages]int64{}
	sp.start = time.Now()
	sp.last = sp.start
}

// spanMark closes one stage of a timed message: the time since the
// previous boundary is attributed to it. Stages may be marked more than
// once (the time accumulates) and in any order; unmarked stages report
// zero.
func (g *Gateway) spanMark(cs *connState, stage int) {
	sp := &cs.span
	if !sp.sampled {
		return
	}
	now := time.Now()
	sp.stages[stage] += int64(now.Sub(sp.last))
	sp.last = now
}

// spanEnd closes a timed message: total latency goes to the exchange
// histogram, each marked stage to its stage histogram (all on the
// connection's stripe), and — with a span ring attached — the assembled
// Span into the ring, attributed to the shard of the session it touched.
func (g *Gateway) spanEnd(cs *connState, err error) {
	sp := &cs.span
	if !sp.sampled {
		return
	}
	total := int64(time.Since(sp.start))
	g.m.exchange.Observe(cs.mstripe, total)
	for i := 0; i < numStages; i++ {
		if sp.stages[i] > 0 {
			g.m.stages[i].Observe(cs.mstripe, sp.stages[i])
		}
	}
	if g.spans == nil {
		return
	}
	shard := cs.stripe
	if sp.sess >= 0 {
		shard = g.shardIndex(sp.sess)
	}
	s := obs.Span{
		Trace:   sp.trace,
		Kind:    typeName(sp.kind),
		Shard:   shard,
		Session: sp.sess,
		TotalNs: total,
		Client:  sp.client,
		Stages:  sp.stages,
	}
	if err != nil {
		s.Err = err.Error()
	}
	g.spans.Push(s)
}

// Profile is a point-in-time latency profile of the gateway: per-stage
// wire-path histograms (in StageNames order), the whole-exchange
// histogram, per-shard tick histograms, and the round-level tick
// profile. Stages and Exchange hold the timed messages only (1 in
// Config.SpanSampleEvery per connection stripe, plus every
// client-traced one), so their counts are messages timed, not messages
// handled; the tick histograms see every round. All values are merged
// snapshots in nanoseconds; with no metrics registry attached every
// histogram is empty and ActiveSlots is zero.
type Profile struct {
	StageNames []string
	Stages     []metrics.Histogram
	Exchange   metrics.Histogram
	ShardTicks []metrics.Histogram
	TickRound  metrics.Histogram
	JoinWait   metrics.Histogram
	// ActiveSlots is how many slots the last round visited, summed over
	// the shards.
	ActiveSlots int64
}

// Profile snapshots the gateway's latency profile — the data behind the
// bwgateway shutdown summary.
func (g *Gateway) Profile() Profile {
	p := Profile{
		StageNames: StageNames(),
		Stages:     make([]metrics.Histogram, numStages),
		Exchange:   g.m.exchange.Snapshot(),
		ShardTicks: make([]metrics.Histogram, len(g.shards)),
		TickRound:  g.m.tickRound.Snapshot(),
		JoinWait:   g.m.joinWait.Snapshot(),

		ActiveSlots: g.m.activeSlots.Value(),
	}
	for i := 0; i < numStages; i++ {
		p.Stages[i] = g.m.stages[i].Snapshot()
	}
	for i := range g.shards {
		p.ShardTicks[i] = g.m.tickShard.StripeSnapshot(i)
	}
	return p
}
