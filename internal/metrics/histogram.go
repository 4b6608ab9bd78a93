package metrics

import (
	"fmt"
	"math/bits"
	"time"
)

// Histogram is a log-bucketed histogram of non-negative int64 samples,
// built for latency recording on live paths (internal/load, the gateway
// soak experiment): Observe is O(1) with no allocation after the first,
// memory is fixed (~8 KB) regardless of sample count or range, and
// quantiles carry a bounded relative error of 1/2^subBits ≈ 6%.
//
// Values up to 2^subBits are recorded exactly; above that, each power of
// two is split into 2^subBits sub-buckets (the HDR-histogram layout).
// The zero value is an empty histogram ready for use. Histogram is not
// safe for concurrent use; record per goroutine and Merge.
type Histogram struct {
	counts []uint64
	count  int64
	sum    int64
	min    int64
	max    int64
}

// subBits sets the per-octave resolution: 2^subBits sub-buckets per
// power of two, i.e. ≤ 1/16 relative quantile error.
const subBits = 4

// numHistBuckets covers the full non-negative int64 range: the exact
// region [0, 2^subBits) plus (63-subBits) octaves of 2^subBits
// sub-buckets each.
const numHistBuckets = (1 << subBits) + (63-subBits)<<subBits

// histBucket maps a non-negative value to its bucket index. Indices are
// monotone in v.
func histBucket(v int64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v), >= subBits
	// Top subBits bits below the leading one select the sub-bucket.
	sub := int((v >> (uint(e) - subBits)) & (1<<subBits - 1))
	return (e-subBits+1)<<subBits + sub
}

// histBucketMax returns the largest value mapping to bucket i — the
// upper bound reported for quantiles falling in that bucket.
func histBucketMax(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	e := i>>subBits - 1 + subBits
	sub := int64(i & (1<<subBits - 1))
	width := int64(1) << (uint(e) - subBits)
	return int64(1)<<uint(e) + (sub+1)*width - 1
}

// Observe records one sample. Negative samples are clamped to zero (a
// wall-clock latency can read negative under clock adjustment; losing
// the sample would bias counts).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.counts == nil {
		h.counts = make([]uint64, numHistBuckets)
	}
	h.counts[histBucket(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// ObserveN records n identical samples in O(1) — the bulk form behind
// histogram conversions (runtime/metrics buckets folded into this
// layout attribute each bucket's count to one representative value).
// Non-positive n is a no-op; negative v is clamped like Observe.
func (h *Histogram) ObserveN(v, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.counts == nil {
		h.counts = make([]uint64, numHistBuckets)
	}
	h.counts[histBucket(v)] += uint64(n)
	h.count += n
	h.sum += v * n
	if h.count == n || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound on the p-quantile (0 <= p <= 1) with
// relative error at most 1/2^subBits, clamped to the observed min/max.
// It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(p * float64(h.count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += int64(c)
		if cum >= target {
			v := histBucketMax(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Bucket is one non-empty histogram bucket: Count samples fell in the
// value range (previous bucket's UpperBound, UpperBound]. Buckets are the
// export surface for Prometheus-style cumulative rendering (internal/obs).
type Bucket struct {
	UpperBound int64
	Count      uint64
}

// Buckets returns the non-empty buckets in increasing value order. Empty
// buckets are elided — a cumulative rendering stays correct because the
// running total is unchanged across them.
func (h *Histogram) Buckets() []Bucket {
	if h.count == 0 {
		return nil
	}
	var out []Bucket
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, Bucket{UpperBound: histBucketMax(i), Count: c})
		}
	}
	return out
}

// Merge adds all of o's samples into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, numHistBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// LatencySummary is a Histogram snapshot with samples interpreted as
// nanoseconds — the report row of the load subsystem.
type LatencySummary struct {
	Count              int64
	P50, P90, P99, Max time.Duration
	Mean               time.Duration
}

// Latency summarizes the histogram's samples as durations.
func (h *Histogram) Latency() LatencySummary {
	return LatencySummary{
		Count: h.count,
		P50:   time.Duration(h.Quantile(0.50)),
		P90:   time.Duration(h.Quantile(0.90)),
		P99:   time.Duration(h.Quantile(0.99)),
		Max:   time.Duration(h.Max()),
		Mean:  time.Duration(h.Mean()),
	}
}

// String renders the summary compactly, e.g. for log lines.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v max=%v",
		s.Count, s.P50.Round(time.Microsecond), s.P90.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}
