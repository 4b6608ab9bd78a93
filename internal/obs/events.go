package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynbw/internal/bw"
)

// EventType classifies an allocation-event trace entry.
type EventType uint8

const (
	// EventSessionOpen: a session slot was claimed (gateway side) or a
	// client completed its OPEN/OPENED exchange (swarm side).
	EventSessionOpen EventType = iota + 1
	// EventSessionClose: a session slot was released via CLOSE/CLOSED.
	EventSessionClose
	// EventOpenFail: an OPEN was rejected because every slot was in use.
	EventOpenFail
	// EventIdleDisconnect: the gateway dropped an idle or wedged client.
	EventIdleDisconnect
	// EventRenegotiateUp: a policy raised a session's allocation — the
	// paper's cost measure, one change.
	EventRenegotiateUp
	// EventRenegotiateDown: a policy lowered a session's allocation
	// (overflow drain or a matured REDUCE).
	EventRenegotiateDown
	// EventOverflow: a session's backlog engaged the overflow channel.
	EventOverflow
	// EventStageReset: a stage boundary (multi-session RESET, combined
	// global reset, or a growth of the global bandwidth estimate).
	EventStageReset
	// EventRoutePlace: the routing tier placed a session on a link.
	EventRoutePlace
	// EventRouteBlock: the routing tier rejected a session (no link with
	// room under the policy's admission rule).
	EventRouteBlock
	// EventRouteReroute: a rebalance pass migrated a live session to
	// another link — one reconfiguration in the b-matching cost measure,
	// counted alongside allocation changes.
	EventRouteReroute
	// EventRouteRelease: a routed session departed and freed its link
	// capacity.
	EventRouteRelease
)

// eventNames spells each event type in JSONL.
var eventNames = [...]string{EventSessionOpen: "session_open", EventSessionClose: "session_close",
	EventOpenFail: "open_fail", EventIdleDisconnect: "idle_disconnect", EventRenegotiateUp: "renegotiate_up",
	EventRenegotiateDown: "renegotiate_down", EventOverflow: "overflow", EventStageReset: "stage_reset",
	EventRoutePlace: "route_place", EventRouteBlock: "route_block", EventRouteReroute: "route_reroute",
	EventRouteRelease: "route_release"}

// String returns the JSONL spelling of the event type.
func (t EventType) String() string {
	if t > 0 && int(t) < len(eventNames) {
		return eventNames[t]
	}
	return fmt.Sprintf("event_%d", uint8(t))
}

// MarshalJSON renders the type as its string spelling.
func (t EventType) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// Event is one allocation-trace entry. Session is the slot index, or -1
// for events not tied to one session (stage resets, failed opens). Rule
// names the policy decision that triggered a renegotiation (e.g.
// "phase-raise", "test-spill", "reduce", "stage-reset", "global-reset")
// or, for route_* events, the routing policy ("greedy", "dar", "p2c").
// Link identifies the backend link of a routing event (the destination
// link for placements and reroutes); FromLink is the source link of a
// reroute, and -1 otherwise.
type Event struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	Type     EventType `json:"type"`
	Session  int       `json:"session"`
	Tick     bw.Tick   `json:"tick,omitempty"`
	OldRate  bw.Rate   `json:"old_rate,omitempty"`
	NewRate  bw.Rate   `json:"new_rate,omitempty"`
	Link     int       `json:"link,omitempty"`
	FromLink int       `json:"from_link,omitempty"`
	Rule     string    `json:"rule,omitempty"`
}

// Observer receives allocation events. The core policies, the gateway
// and the load swarm each accept an optional Observer; a Ring is the
// standard implementation. Implementations must be safe for concurrent
// use and must not block: events are emitted from allocation and
// connection hot paths.
type Observer interface {
	Event(Event)
}

// Observable is implemented by policies that accept an Observer
// (core.Phased, core.Continuous, core.Combined).
type Observable interface {
	SetObserver(Observer)
}

// Ring is the event ring — the standard Observer: a fixed number of
// retained events split evenly over independently locked stripes, so
// emitters on different gateway shards never contend on one mutex. One
// stripe is the plain case (NewRing), not a different type. When a stripe
// is full its oldest event is overwritten and counted as dropped. Seq is
// globally monotone (one atomic, claimed under the stripe's lock, so each
// stripe holds its events in Seq order) and Snapshot merges the stripes
// back into Seq order, so a dump reads the same whatever the stripe
// count. The nil *Ring is a valid no-op, so tracing can be left
// unconfigured.
type Ring struct {
	seq     atomic.Uint64
	stripes []ringStripe
}

// ShardedRing is Ring, for callers that name the striped ring.
type ShardedRing = Ring

// ringStripe is one independently locked share of the ring. The padding
// keeps adjacent stripes' mutexes off a shared cache line.
type ringStripe struct {
	mu sync.Mutex
	q  ring[eventRec] // guarded by mu
	_  [64]byte
}

// eventRec is an Event as the ring stores it: 80 bytes where an Event
// is 104 (TestRingRecordSizes). Time is kept as Unix nanoseconds, which
// drops its monotonic clock reading and its zone but not the instant,
// and the links as int32.
type eventRec struct {
	seq               uint64
	at, session, tick int64
	oldRate, newRate  bw.Rate
	rule              string
	link, fromLink    int32
	typ               EventType
}

// event rebuilds the packed Event, its Time in the local zone.
func (r *eventRec) event() Event {
	return Event{Seq: r.seq, Time: time.Unix(0, r.at), Type: r.typ, Session: int(r.session), Tick: r.tick,
		OldRate: r.oldRate, NewRate: r.newRate, Link: int(r.link), FromLink: int(r.fromLink), Rule: r.rule}
}

// DefaultRingSize is the event capacity used when a ring is built with a
// non-positive size.
const DefaultRingSize = 4096

// NewRing returns a one-stripe ring holding the last n events.
func NewRing(n int) *Ring { return NewShardedRing(n, 1) }

// NewShardedRing returns a ring retaining about n events in total,
// split evenly across the given number of stripes (both minimums 1; a
// non-positive n uses DefaultRingSize). The stripes are unshared until
// the ring is returned (bwlint:holds mu).
func NewShardedRing(n, stripes int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	stripes = max(stripes, 1)
	per := (n + stripes - 1) / stripes
	r := &Ring{stripes: make([]ringStripe, stripes)}
	for i := range r.stripes {
		r.stripes[i].q = newRing[eventRec](per)
	}
	return r
}

// Event implements Observer, routing by the event's session (session-
// tagged events from different sessions spread across stripes; untagged
// events land on stripe 0). Emitters that know their shard should use a
// Stripe handle instead, which guarantees the stripe choice matches the
// shard's lock domain.
func (r *Ring) Event(e Event) {
	if r == nil {
		return
	}
	r.eventAt(max(e.Session, 0), e)
}

// Stripe returns an Observer that appends onto stripe i (reduced modulo
// the stripe count) — the per-shard emission handle.
func (r *Ring) Stripe(i int) Observer {
	if r == nil {
		return nil
	}
	return stripeHandle{r: r, idx: i}
}

// StripeOf returns the observer shard i of a sharded emitter emits
// through: o's stripe i when o is a Ring, so that emission stays inside
// the shard's lock domain, and o itself otherwise.
func StripeOf(o Observer, i int) Observer {
	if r, ok := o.(*Ring); ok {
		return r.Stripe(i)
	}
	return o
}

// stripeHandle pins an emitter to one stripe.
type stripeHandle struct {
	r   *Ring
	idx int
}

// Event implements Observer.
func (h stripeHandle) Event(e Event) { h.r.eventAt(h.idx, e) }

// eventAt stamps the wall-clock time (when unset) and the global
// sequence number and appends onto one stripe.
func (r *Ring) eventAt(idx int, e Event) {
	s := &r.stripes[uint(idx)%uint(len(r.stripes))]
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	rec := eventRec{0, e.Time.UnixNano(), int64(e.Session), e.Tick, e.OldRate, e.NewRate,
		e.Rule, int32(e.Link), int32(e.FromLink), e.Type}
	s.mu.Lock()
	rec.seq = r.seq.Add(1) - 1
	s.q.push(rec)
	s.mu.Unlock()
}

// Total returns how many events have ever been appended.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Dropped returns how many events were overwritten before any dump
// could retain them, summed across stripes — zero until a stripe wraps.
// A nonzero value under load is the signal that the ring (or the scrape
// cadence) is undersized.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var total uint64
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		total += s.q.dropped
		s.mu.Unlock()
	}
	return total
}

// Snapshot returns the retained events of every stripe, ordered by Seq.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var recs []eventRec
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		recs = s.q.appendTo(recs)
		s.mu.Unlock()
	}
	slices.SortFunc(recs, func(a, b eventRec) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Event, len(recs))
	for i := range recs {
		out[i] = recs[i].event()
	}
	return out
}

// WriteJSONL dumps a ring_meta header line (total/retained/dropped)
// followed by the retained events in Seq order, one JSON object per
// line.
func (r *Ring) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	events := r.Snapshot()
	return writeJSONL(w, ringMeta{RingMeta: true, Total: r.Total(), Retained: len(events), Dropped: r.Dropped()}, events)
}

// Instrument exports the ring's totals on reg: dynbw_events_total and
// dynbw_events_dropped_total, read at scrape time.
func (r *Ring) Instrument(reg *Registry) {
	if r == nil {
		return
	}
	reg.CounterFunc("dynbw_events_total", "Allocation events appended to the event ring.",
		func() int64 { return int64(r.Total()) })
	reg.CounterFunc("dynbw_events_dropped_total", "Allocation events overwritten (lost) before being dumped.",
		func() int64 { return int64(r.Dropped()) })
}

// ringMeta is the header line of every JSONL events dump: how many
// events were ever appended, how many the dump retains, and how many
// were dropped (overwritten) in between. A reader distinguishing a
// quiet system from a saturated ring keys off dropped.
type ringMeta struct {
	RingMeta bool   `json:"ring_meta"`
	Total    uint64 `json:"total"`
	Retained int    `json:"retained"`
	Dropped  uint64 `json:"dropped"`
}
