package obs

import (
	"sync/atomic"

	"dynbw/internal/metrics"
)

// striped.go holds the lock-striped instruments behind the sharded
// gateway: counters and histograms whose hot-path updates land on a
// per-shard stripe (no cross-shard cache-line traffic) and whose reads
// merge the stripes at scrape time. They pair with Registry.CounterFunc
// and Registry.HistogramFunc, which render merged values on demand.

// stripe64 is one cache-line-padded counter stripe. The padding keeps
// adjacent stripes from false-sharing a line when different shards
// update their own stripe concurrently.
type stripe64 struct {
	v atomic.Int64
	_ [56]byte
}

// Striped is a lock-striped counter: Add lands on the caller's stripe,
// Value sums every stripe. Like Counter it is monotone (negative deltas
// are ignored) and the nil *Striped is a valid no-op.
type Striped struct {
	stripes []stripe64
}

// NewStriped returns a counter with n stripes (minimum 1).
func NewStriped(n int) *Striped {
	if n < 1 {
		n = 1
	}
	return &Striped{stripes: make([]stripe64, n)}
}

// Inc adds one on the given stripe.
func (s *Striped) Inc(stripe int) {
	if s == nil {
		return
	}
	s.Add(stripe, 1)
}

// Add adds n on the given stripe (reduced modulo the stripe count, so
// any shard index is a valid stripe).
func (s *Striped) Add(stripe int, n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.stripes[uint(stripe)%uint(len(s.stripes))].v.Add(n)
}

// Value sums every stripe.
func (s *Striped) Value() int64 {
	if s == nil {
		return 0
	}
	var total int64
	for i := range s.stripes {
		total += s.stripes[i].v.Load()
	}
	return total
}

// Stripes returns the stripe count.
func (s *Striped) Stripes() int {
	if s == nil {
		return 0
	}
	return len(s.stripes)
}

// StripedGauge is a gauge that is the sum of per-stripe levels: each
// writer stores its own stripe's current level with Set (one atomic
// store, no cross-stripe traffic), and Value adds the stripes up. The nil
// *StripedGauge is a valid no-op.
type StripedGauge struct {
	stripes []stripe64
}

// NewStripedGauge returns a gauge with n stripes (minimum 1).
func NewStripedGauge(n int) *StripedGauge {
	if n < 1 {
		n = 1
	}
	return &StripedGauge{stripes: make([]stripe64, n)}
}

// Set stores v as the given stripe's level.
func (s *StripedGauge) Set(stripe int, v int64) {
	if s == nil {
		return
	}
	s.stripes[uint(stripe)%uint(len(s.stripes))].v.Store(v)
}

// Value sums the stripes' levels.
func (s *StripedGauge) Value() int64 {
	if s == nil {
		return 0
	}
	var total int64
	for i := range s.stripes {
		total += s.stripes[i].v.Load()
	}
	return total
}

// StripedHistogram is a lock-striped LiveHistogram: Observe contends
// only on the caller's stripe, Snapshot merges all stripes into one
// histogram. The nil *StripedHistogram is a valid no-op.
type StripedHistogram struct {
	stripes []LiveHistogram
}

// NewStripedHistogram returns a histogram with n stripes (minimum 1).
func NewStripedHistogram(n int) *StripedHistogram {
	if n < 1 {
		n = 1
	}
	return &StripedHistogram{stripes: make([]LiveHistogram, n)}
}

// Observe records one sample on the given stripe (reduced modulo the
// stripe count).
func (s *StripedHistogram) Observe(stripe int, v int64) {
	if s == nil {
		return
	}
	s.stripes[uint(stripe)%uint(len(s.stripes))].Observe(v)
}

// StripeSnapshot returns a point-in-time copy of one stripe (reduced
// modulo the stripe count) — the per-shard view behind shard-labeled
// histogram series (per-shard tick profiles).
func (s *StripedHistogram) StripeSnapshot(stripe int) metrics.Histogram {
	if s == nil {
		return metrics.Histogram{}
	}
	return s.stripes[uint(stripe)%uint(len(s.stripes))].Snapshot()
}

// Snapshot merges every stripe into one point-in-time histogram.
func (s *StripedHistogram) Snapshot() metrics.Histogram {
	if s == nil {
		return metrics.Histogram{}
	}
	var out metrics.Histogram
	for i := range s.stripes {
		snap := s.stripes[i].Snapshot()
		out.Merge(&snap)
	}
	return out
}
