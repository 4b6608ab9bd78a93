package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0) != 0 {
		t.Errorf("empty histogram not zeroed: %+v", h)
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %d", q)
	}
	if m := h.Mean(); m != 0 {
		t.Errorf("empty mean = %v", m)
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 16; v++ {
		h.Observe(v)
	}
	if h.Count() != 16 || h.Quantile(0) != 0 || h.Max() != 15 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Quantile(0), h.Max())
	}
	// Values below 2^subBits are recorded exactly.
	if q := h.Quantile(0.5); q != 7 {
		t.Errorf("p50 = %d, want 7", q)
	}
	if q := h.Quantile(1); q != 15 {
		t.Errorf("p100 = %d, want 15", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Errorf("p0 = %d, want 0", q)
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's reported upper bound must itself map back to that
	// bucket, and bucket indices must be monotone in the value.
	last := -1
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1<<62 + 999} {
		i := histBucket(v)
		if i < last {
			t.Errorf("bucket index not monotone at %d", v)
		}
		last = i
		if hi := histBucketMax(i); histBucket(hi) != i {
			t.Errorf("bucketMax(%d) = %d maps to bucket %d", i, hi, histBucket(hi))
		}
		if hi := histBucketMax(i); hi < v {
			t.Errorf("bucketMax(%d) = %d below member value %d", i, hi, v)
		}
	}
}

func TestHistogramQuantileRelativeError(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(42))
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 1e6) // latency-like ns values
		samples = append(samples, v)
		h.Observe(v)
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	exact := func(p float64) int64 {
		idx := int(p*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		return sorted[idx]
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		got := h.Quantile(p)
		want := exact(p)
		lo := float64(want) * (1 - 1.0/16)
		hi := float64(want)*(1+1.0/16) + 1
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("p%v = %d, want within 1/16 of %d", p*100, got, want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	for v := int64(1); v <= 1000; v++ {
		whole.Observe(v * 17)
		if v%2 == 0 {
			a.Observe(v * 17)
		} else {
			b.Observe(v * 17)
		}
	}
	a.Merge(&b)
	a.Merge(nil)
	var empty Histogram
	a.Merge(&empty)
	if a.Count() != whole.Count() || a.Sum() != whole.Sum() ||
		a.Quantile(0) != whole.Quantile(0) || a.Max() != whole.Max() {
		t.Fatalf("merge mismatch: %d/%d sum %d/%d", a.Count(), whole.Count(), a.Sum(), whole.Sum())
	}
	for _, p := range []float64{0.25, 0.5, 0.75, 0.99} {
		if a.Quantile(p) != whole.Quantile(p) {
			t.Errorf("p%v: merged %d, whole %d", p*100, a.Quantile(p), whole.Quantile(p))
		}
	}
	// Merge into an empty histogram adopts min/max.
	var fresh Histogram
	fresh.Merge(&whole)
	if fresh.Quantile(0) != whole.Quantile(0) || fresh.Max() != whole.Max() {
		t.Errorf("fresh merge min/max = %d/%d", fresh.Quantile(0), fresh.Max())
	}
}

func TestHistogramMergeBucketConfigs(t *testing.T) {
	// The zero value has nil counts; an observed histogram has the full
	// allocated array. Merge must work across every pairing.
	var nilDst, allocSrc Histogram
	allocSrc.Observe(5)
	allocSrc.Observe(1 << 20)
	nilDst.Merge(&allocSrc) // nil counts <- allocated
	if nilDst.Count() != 2 || nilDst.Quantile(0) != 5 || nilDst.Max() != 1<<20 {
		t.Fatalf("nil<-alloc: count=%d min=%d max=%d", nilDst.Count(), nilDst.Quantile(0), nilDst.Max())
	}

	var allocDst, nilSrc Histogram
	allocDst.Observe(7)
	allocDst.Merge(&nilSrc) // allocated <- nil counts (empty): no-op
	if allocDst.Count() != 1 || allocDst.Quantile(0) != 7 || allocDst.Max() != 7 {
		t.Fatalf("alloc<-nil changed state: count=%d", allocDst.Count())
	}

	// Empty-but-allocated source (observed then structurally empty is not
	// constructible, so emulate with a histogram whose samples were all
	// merged out — i.e. a zero-count histogram with counts allocated).
	var drained Histogram
	drained.Observe(3)
	drained = Histogram{} // back to zero value
	allocDst.Merge(&drained)
	if allocDst.Count() != 1 {
		t.Fatalf("merge of zero-value source changed count to %d", allocDst.Count())
	}

	// Merging must be order-independent for min/max.
	var x, y Histogram
	x.Observe(100)
	y.Observe(2)
	x.Merge(&y)
	if x.Quantile(0) != 2 || x.Max() != 100 {
		t.Errorf("min/max after merge = %d/%d, want 2/100", x.Quantile(0), x.Max())
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	for _, p := range []float64{-1, 0, 0.5, 1, 2} {
		if q := empty.Quantile(p); q != 0 {
			t.Errorf("empty.Quantile(%v) = %d, want 0", p, q)
		}
	}

	var h Histogram
	h.Observe(10)
	h.Observe(1 << 30)
	// Out-of-range p clamps rather than panicking or extrapolating.
	if q := h.Quantile(-0.5); q != 10 {
		t.Errorf("Quantile(-0.5) = %d, want min 10", q)
	}
	if q := h.Quantile(1.5); q != 1<<30 {
		t.Errorf("Quantile(1.5) = %d, want max %d", q, 1<<30)
	}
	// p=1 is exact even though the top bucket's bound exceeds the max.
	if q := h.Quantile(1); q != 1<<30 {
		t.Errorf("Quantile(1) = %d, want %d", q, 1<<30)
	}
	// A single sample answers every quantile with itself.
	var one Histogram
	one.Observe(77)
	for _, p := range []float64{0, 0.5, 1} {
		if q := one.Quantile(p); q != 77 {
			t.Errorf("single-sample Quantile(%v) = %d, want 77", p, q)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var empty Histogram
	if b := empty.Buckets(); b != nil {
		t.Errorf("empty Buckets = %v, want nil", b)
	}

	var h Histogram
	samples := []int64{0, 3, 3, 16, 1 << 10, 1 << 40}
	for _, v := range samples {
		h.Observe(v)
	}
	bks := h.Buckets()
	var total uint64
	lastBound := int64(-1)
	for _, b := range bks {
		if b.Count == 0 {
			t.Errorf("empty bucket %+v not elided", b)
		}
		if b.UpperBound <= lastBound {
			t.Errorf("bucket bounds not increasing: %d after %d", b.UpperBound, lastBound)
		}
		lastBound = b.UpperBound
		total += b.Count
	}
	if total != uint64(len(samples)) {
		t.Errorf("bucket counts sum to %d, want %d", total, len(samples))
	}
	// The value 3 is in the exact region: its bucket holds both samples.
	found := false
	for _, b := range bks {
		if b.UpperBound == 3 && b.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("exact-region bucket for value 3 missing: %+v", bks)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	h.Observe(10)
	if h.Count() != 2 || h.Quantile(0) != 0 {
		t.Errorf("count=%d min=%d after negative observe", h.Count(), h.Quantile(0))
	}
}

func TestLatencySummary(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(int64(time.Millisecond))
	}
	s := h.Latency()
	if s.Count != 100 || s.P50 != time.Millisecond || s.Max != time.Millisecond {
		t.Errorf("summary %+v", s)
	}
	str := s.String()
	for _, want := range []string{"n=100", "p50=1ms", "max=1ms"} {
		if !strings.Contains(str, want) {
			t.Errorf("summary string %q missing %q", str, want)
		}
	}
}
