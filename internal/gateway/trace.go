package gateway

import (
	"time"

	"dynbw/internal/metrics"
	"dynbw/internal/obs"
)

// trace.go is the gateway's wire-path instrumentation: per-message stage
// timers feeding the dynbw_gateway_stage_ns histograms on every message,
// and 1-in-N sampled spans carrying a trace ID into the span ring. The
// stage clock runs only when a metrics registry or a sampled span wants
// it (span.on), so a bare gateway pays a single bool check per stage
// boundary; the instrumented unsampled path pays one time.Now per stage
// and no allocation — the scratch state lives inside connState, which is
// allocated once per connection.

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
// construction. It is embedded in connState so arming a span never
// allocates; one scratch is live per connection because handleMessage
// exchanges are serialized per connection.
type spanScratch struct {
	on      bool   // stage clock armed for the current message
	sampled bool   // push a Span at spanEnd
	client  bool   // trace ID arrived in a TRACE envelope
	trace   uint64 // span identity (sampled only)
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

// spanBegin arms the stage clock for one message: always when metrics
// are attached (the stage histograms see every message), and with a span
// to push when the local sampler fires or the client sent a TRACE
// envelope. Client traces bypass the sampler — the peer asked.
func (g *Gateway) spanBegin(cs *connState, typ byte) {
	sp := &cs.span
	sp.sampled, sp.client, sp.trace = false, false, 0
	if cs.pending.set {
		sp.trace, sp.client, sp.sampled = cs.pending.id, true, g.spans != nil
		cs.pending = pendingTrace{}
	} else if g.sampler.Hit(cs.mstripe) {
		sp.trace = g.spans.NextTrace(cs.mstripe)
		sp.sampled = true
	}
	sp.on = g.m.exchange != nil || sp.sampled
	if !sp.on {
		return
	}
	sp.kind = typ
	sp.sess = -1
	sp.stages = [obs.MaxSpanStages]int64{}
	sp.start = time.Now()
	sp.last = sp.start
}

// spanMark closes one stage: the time since the previous boundary is
// attributed to it. Stages may be marked more than once (the time
// accumulates) and in any order; unmarked stages report zero.
func (g *Gateway) spanMark(cs *connState, stage int) {
	sp := &cs.span
	if !sp.on {
		return
	}
	now := time.Now()
	sp.stages[stage] += int64(now.Sub(sp.last))
	sp.last = now
}

// spanEnd closes the message: total latency goes to the exchange
// histogram, each marked stage to its stage histogram (all on the
// connection's stripe), and — when sampled — the assembled Span into the
// ring, attributed to the shard of the session it touched.
func (g *Gateway) spanEnd(cs *connState, err error) {
	sp := &cs.span
	if !sp.on {
		return
	}
	sp.on = false
	total := int64(time.Since(sp.start))
	g.m.exchange.Observe(cs.mstripe, total)
	for i := 0; i < numStages; i++ {
		if sp.stages[i] > 0 {
			g.m.stages[i].Observe(cs.mstripe, sp.stages[i])
		}
	}
	if !sp.sampled {
		return
	}
	shard := cs.stripe
	if sp.sess >= 0 {
		shard = g.shardOf(sp.sess).idx
	}
	s := obs.Span{
		Trace:   sp.trace,
		Kind:    kindName(sp.kind),
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

// kindName maps a wire type byte to its span label.
func kindName(t byte) string {
	switch t {
	case typeOpen:
		return "open"
	case typeData:
		return "data"
	case typeStats:
		return "stats"
	case typeClose:
		return "close"
	default:
		return "unknown"
	}
}

// Profile is a point-in-time latency profile of the gateway: per-stage
// wire-path histograms (in StageNames order), the whole-exchange
// histogram, per-shard tick histograms, and the round-level tick
// profile. All values are merged snapshots in nanoseconds; with no
// metrics registry attached every histogram is empty and ActiveSlots is
// zero.
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
