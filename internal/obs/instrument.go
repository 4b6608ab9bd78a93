package obs

import (
	"sync"
	"sync/atomic"

	"dynbw/internal/metrics"
)

// instrument.go holds the metric instruments: a Counter, a Gauge and a
// Histogram, each n stripes wide. An update lands on the caller's stripe
// (a shard or connection index, reduced modulo n), so shards updating
// their own stripes share no cache line and no lock; a read merges the
// stripes. One stripe is the plain instrument, not another type. Each is
// built by New*(n) or by the Registry, and its nil pointer is a valid
// no-op, so instrumented code reads the same with no registry attached.

// stripe64 is one cache-line-padded counter stripe. The padding keeps
// adjacent stripes from false-sharing a line when different shards
// update their own stripe concurrently.
type stripe64 struct {
	v atomic.Int64
	_ [56]byte
}

// stripes is the body of a Counter or a Gauge: one value kept as the sum
// of n padded cells.
type stripes []stripe64

func newStripes(n int) stripes { return make(stripes, max(n, 1)) }

// at returns stripe i's cell, i reduced modulo the stripe count.
func (s stripes) at(i int) *atomic.Int64 { return &s[uint(i)%uint(len(s))].v }

func (s stripes) sum() int64 {
	var total int64
	for i := range s {
		total += s[i].v.Load()
	}
	return total
}

// Counter is a monotone count: Add lands on the caller's stripe, Value
// sums every stripe, and negative deltas are ignored. The nil *Counter
// is a valid no-op.
type Counter struct{ s stripes }

// NewCounter returns a counter with n stripes (minimum 1).
func NewCounter(n int) *Counter { return &Counter{newStripes(n)} }

// Inc adds one on the given stripe.
func (c *Counter) Inc(stripe int) { c.Add(stripe, 1) }

// Add adds n on the given stripe.
func (c *Counter) Add(stripe int, n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.s.at(stripe).Add(n)
}

// Value sums every stripe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.s.sum()
}

// Gauge is a level that goes up and down: each writer keeps its own
// stripe's level with Set or Add, and Value sums the stripes. The nil
// *Gauge is a valid no-op.
type Gauge struct{ s stripes }

// NewGauge returns a gauge with n stripes (minimum 1).
func NewGauge(n int) *Gauge { return &Gauge{newStripes(n)} }

// Set stores v as the given stripe's level.
func (g *Gauge) Set(stripe int, v int64) {
	if g == nil {
		return
	}
	g.s.at(stripe).Store(v)
}

// Add moves the given stripe's level by n (may be negative).
func (g *Gauge) Add(stripe int, n int64) {
	if g == nil {
		return
	}
	g.s.at(stripe).Add(n)
}

// Value sums the stripes' levels.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.s.sum()
}

// Histogram is a latency histogram with internal/metrics.Histogram's
// log-spaced buckets: Observe locks only the caller's stripe, Snapshot
// merges every stripe. The nil *Histogram is a valid no-op.
type Histogram struct{ s []histStripe }

type histStripe struct {
	mu sync.Mutex
	h  metrics.Histogram // guarded by mu
}

// NewHistogram returns a histogram with n stripes (minimum 1).
func NewHistogram(n int) *Histogram { return &Histogram{make([]histStripe, max(n, 1))} }

// stripe returns stripe i, reduced modulo the stripe count.
func (h *Histogram) stripe(i int) *histStripe { return &h.s[uint(i)%uint(len(h.s))] }

// Observe records one sample on the given stripe.
func (h *Histogram) Observe(stripe int, v int64) {
	if h == nil {
		return
	}
	st := h.stripe(stripe)
	st.mu.Lock()
	st.h.Observe(v)
	st.mu.Unlock()
}

// StripeSnapshot returns a point-in-time copy of one stripe — the
// per-shard view behind shard-labeled series (per-shard tick profiles).
func (h *Histogram) StripeSnapshot(stripe int) metrics.Histogram {
	var out metrics.Histogram
	if h != nil {
		h.stripe(stripe).mergeInto(&out)
	}
	return out
}

// Snapshot merges every stripe into one point-in-time histogram.
func (h *Histogram) Snapshot() metrics.Histogram {
	var out metrics.Histogram
	if h != nil {
		for i := range h.s {
			h.s[i].mergeInto(&out)
		}
	}
	return out
}

func (st *histStripe) mergeInto(out *metrics.Histogram) {
	st.mu.Lock()
	out.Merge(&st.h)
	st.mu.Unlock()
}
