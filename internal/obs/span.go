package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// span.go is the wire-path tracing half of the second observability
// layer: a Sampler decides (at striped-atomic cost: one add per message,
// or per BATCH frame) which messages are timed, and a SpanRing retains
// the timed messages' spans for the admin /spans endpoint. The unsampled
// path pays its share of one striped counter add and nothing else — no
// clock read. The instrumented component feeds its latency histograms
// (the gateway's dynbw_gateway_stage_ns) from the same sampled messages,
// so those hold a uniform 1-in-N sample per stripe: quantiles stay
// per-message estimates, the histogram count is messages timed, and
// exact per-message totals live in plain counters.

// MaxSpanStages bounds the per-span stage vector so a Span is a flat
// value type: recording a span never allocates, it copies one struct
// into the ring. It is the gateway's four wire stages.
const MaxSpanStages = 4

// Span is one traced message: a trace ID, the message kind, where it
// ran, and how its wall time divided across the component's stages
// (nanoseconds, in the ring's StageNames order). Client is true when the
// trace ID arrived from the peer (a TRACE-enveloped wire message) rather
// than from local sampling.
type Span struct {
	Trace   uint64    `json:"trace"`
	Kind    string    `json:"kind"`
	Shard   int       `json:"shard"`
	Session int       `json:"session"`
	Time    time.Time `json:"time"`
	TotalNs int64     `json:"total_ns"`
	Client  bool      `json:"client,omitempty"`
	Err     string    `json:"err,omitempty"`
	// Stages holds per-stage nanoseconds; entries past the ring's stage
	// count are zero and omitted from dumps.
	Stages [MaxSpanStages]int64 `json:"-"`
}

// SpanRing is a fixed-size ring of sampled spans, named per stage at
// construction so dumps label the stage vector. Push copies the span by
// value (no allocation); when full the oldest span is overwritten and
// counted as dropped. The nil *SpanRing is a valid no-op, so span
// recording can be left unconfigured.
type SpanRing struct {
	mu     sync.Mutex
	names  []string
	q      ring[spanRec] // guarded by mu; dropped counts spans overwritten before any dump
	traces atomic.Uint64
}

// spanRec is a Span as the ring stores it: 104 bytes where a Span is 128
// (TestRingRecordSizes), its Time as Unix nanoseconds (the instant
// without the monotonic reading or the zone) and its shard as int32.
type spanRec struct {
	trace                uint64
	kind, err            string
	session, at, totalNs int64
	stages               [MaxSpanStages]int64
	shard                int32
	client               bool
}

// span rebuilds the packed Span, its Time in the local zone.
func (r *spanRec) span() Span {
	return Span{Trace: r.trace, Kind: r.kind, Shard: int(r.shard), Session: int(r.session), Time: time.Unix(0, r.at),
		TotalNs: r.totalNs, Client: r.client, Err: r.err, Stages: r.stages}
}

// DefaultSpanRingSize is the span capacity used when NewSpanRing is
// given a non-positive size.
const DefaultSpanRingSize = 2048

// NewSpanRing returns a ring holding the last n spans whose stage
// vectors are labeled by stageNames. More than MaxSpanStages names
// panics: a dump would lose the stages past it.
func NewSpanRing(n int, stageNames []string) *SpanRing {
	if n <= 0 {
		n = DefaultSpanRingSize
	}
	if len(stageNames) > MaxSpanStages {
		panic(fmt.Sprintf("obs: %d span stages, at most %d", len(stageNames), MaxSpanStages))
	}
	return &SpanRing{
		names: append([]string(nil), stageNames...),
		q:     newRing[spanRec](n),
	}
}

// NextTrace mints a locally unique trace ID for a sampled span. IDs are
// tagged with the stripe in the high byte so a merged dump shows where a
// span was sampled even before reading it.
func (r *SpanRing) NextTrace(stripe int) uint64 {
	if r == nil {
		return 0
	}
	return uint64(stripe&0x7f)<<56 | r.traces.Add(1)
}

// Push appends one span, stamping its time when unset and overwriting
// the oldest span once the ring is full.
func (r *SpanRing) Push(s Span) {
	if r == nil {
		return
	}
	if s.Time.IsZero() {
		s.Time = time.Now()
	}
	rec := spanRec{s.Trace, s.Kind, s.Err, int64(s.Session), s.Time.UnixNano(), s.TotalNs, s.Stages, int32(s.Shard), s.Client}
	r.mu.Lock()
	r.q.push(rec)
	r.mu.Unlock()
}

// Total returns how many spans have ever been pushed.
func (r *SpanRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.q.total
}

// Dropped returns how many spans were overwritten before any dump could
// retain them.
func (r *SpanRing) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.q.dropped
}

// Snapshot returns the retained spans, oldest first.
func (r *SpanRing) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	recs := r.q.appendTo(nil)
	r.mu.Unlock()
	out := make([]Span, len(recs))
	for i := range recs {
		out[i] = recs[i].span()
	}
	return out
}

// spanMeta is the header line of a JSONL span dump.
type spanMeta struct {
	SpanMeta bool     `json:"span_meta"`
	Total    uint64   `json:"total"`
	Retained int      `json:"retained"`
	Dropped  uint64   `json:"dropped"`
	Stages   []string `json:"stages"`
}

// spanJSON renders one span with its stage vector as a name→ns object.
type spanJSON struct {
	Span
	StageNs map[string]int64 `json:"stage_ns"`
}

// WriteJSONL dumps a span_meta header line (total/retained/dropped and
// the stage names) followed by the retained spans, oldest first, one
// JSON object per line with the stage vector rendered by name.
func (r *SpanRing) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	spans := r.Snapshot()
	rows := make([]spanJSON, len(spans))
	for i, s := range spans {
		rows[i] = spanJSON{Span: s, StageNs: make(map[string]int64, len(r.names))}
		for j, name := range r.names {
			rows[i].StageNs[name] = s.Stages[j]
		}
	}
	return writeJSONL(w, spanMeta{SpanMeta: true, Total: r.Total(), Retained: len(spans),
		Dropped: r.Dropped(), Stages: r.names}, rows)
}

// Instrument exports the ring's totals on reg: dynbw_spans_total and
// dynbw_spans_dropped_total, read at scrape time.
func (r *SpanRing) Instrument(reg *Registry) {
	if r == nil {
		return
	}
	reg.CounterFunc("dynbw_spans_total", "Wire-path spans sampled into the span ring.",
		func() int64 { return int64(r.Total()) })
	reg.CounterFunc("dynbw_spans_dropped_total", "Sampled spans overwritten (lost) before being dumped.",
		func() int64 { return int64(r.Dropped()) })
}

// Sampler is a 1-in-N decision maker for message timing. Each stripe
// numbers its events 0, 1, 2, … and samples exactly one position in every
// block of N consecutive positions, so the decision needs no randomness
// (deterministic under test). Reserve takes the next n positions with
// one uncontended atomic add — a message takes one, a BATCH frame one
// for each of its messages — and At decides each reserved position.
// The sampled position moves from block to block (see At), so traffic
// that repeats with a period dividing N — a client looping over 64 DATA
// then 64 STATS against the default 1024 — has every part of its cycle
// sampled in turn, not one message of it every time. The nil *Sampler is
// a valid no-op that never samples.
type Sampler struct {
	every uint64
	// pow2 says every is a power of two, 2^shift — the default period
	// is — so that At shifts and masks where it would divide.
	pow2    bool
	shift   uint
	stripes []stripe64
}

// DefaultSampleEvery is the sampling period used when NewSampler is
// given a non-positive period.
const DefaultSampleEvery = 1024

// NewSampler returns a sampler firing once per n positions per stripe
// (minimum 1 stripe; a non-positive n uses DefaultSampleEvery, and
// n == 1 samples everything).
func NewSampler(n uint64, stripes int) *Sampler {
	if n == 0 {
		n = DefaultSampleEvery
	}
	return &Sampler{
		every:   n,
		pow2:    n&(n-1) == 0,
		shift:   uint(bits.TrailingZeros64(n)),
		stripes: make([]stripe64, max(stripes, 1)),
	}
}

// Reserve takes the next n positions on the given stripe (reduced modulo
// the stripe count) with one atomic add and returns the first; the
// caller decides them with At. The nil sampler reserves nothing and
// returns 0.
func (s *Sampler) Reserve(stripe, n int) uint64 {
	if s == nil {
		return 0
	}
	return uint64(s.stripes[uint(stripe)%uint(len(s.stripes))].v.Add(int64(n)) - int64(n))
}

// At reports whether position i is sampled: positions are cut into
// consecutive blocks of N, and block b samples its position number
// N-1-offset(b), where offset is a Fibonacci hash of b scaled into
// [0, N). Block 0 has offset 0, so the first sample is the N-th
// position. The nil sampler samples no position.
func (s *Sampler) At(i uint64) bool {
	if s == nil {
		return false
	}
	block, pos := i>>s.shift, i&(s.every-1)
	if !s.pow2 {
		block, pos = i/s.every, i%s.every
	}
	offset, _ := bits.Mul64(block*0x9E3779B97F4A7C15, s.every)
	return pos == s.every-1-offset
}
