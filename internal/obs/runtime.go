package obs

import (
	"math"
	rm "runtime/metrics"

	"dynbw/internal/metrics"
)

// runtime.go exports Go runtime health as dynbw_go_* metrics via the
// runtime/metrics package: goroutine count, live heap bytes, and the
// GC-pause and scheduler-latency distributions. Everything is read at
// scrape time (GaugeFunc / HistogramFunc), so an idle registry costs
// nothing; each scrape is one batched runtime/metrics.Read per series.
//
// Metrics whose names this Go version does not provide are skipped at
// registration, so the exporter degrades instead of panicking as the
// runtime/metrics catalog evolves.

// RegisterGoRuntime registers the runtime health series on reg:
//
//	dynbw_go_goroutines        gauge      live goroutines
//	dynbw_go_heap_bytes        gauge      bytes of live heap objects
//	dynbw_go_gc_pause_ns       histogram  stop-the-world GC pause durations
//	dynbw_go_sched_latency_ns  histogram  goroutine scheduling latency
//
// A nil registry is a no-op.
func RegisterGoRuntime(reg *Registry) {
	if reg == nil {
		return
	}
	if name := "/sched/goroutines:goroutines"; runtimeMetricOK(name) {
		reg.GaugeFunc("dynbw_go_goroutines", "Live goroutines (runtime/metrics).",
			func() int64 { return readRuntimeGauge(name) })
	}
	if name := "/memory/classes/heap/objects:bytes"; runtimeMetricOK(name) {
		reg.GaugeFunc("dynbw_go_heap_bytes", "Bytes of live heap objects (runtime/metrics).",
			func() int64 { return readRuntimeGauge(name) })
	}
	if name := "/gc/pauses:seconds"; runtimeMetricOK(name) {
		reg.HistogramFunc("dynbw_go_gc_pause_ns", "Stop-the-world GC pause durations, nanoseconds (runtime/metrics).",
			func() metrics.Histogram { return readRuntimeHistogram(name) })
	}
	if name := "/sched/latencies:seconds"; runtimeMetricOK(name) {
		reg.HistogramFunc("dynbw_go_sched_latency_ns", "Time goroutines spend runnable before running, nanoseconds (runtime/metrics).",
			func() metrics.Histogram { return readRuntimeHistogram(name) })
	}
}

// runtimeMetricOK reports whether this Go version serves the metric.
func runtimeMetricOK(name string) bool {
	s := []rm.Sample{{Name: name}}
	rm.Read(s)
	return s[0].Value.Kind() != rm.KindBad
}

// readRuntimeGauge reads one uint64 runtime metric as an int64.
func readRuntimeGauge(name string) int64 {
	s := []rm.Sample{{Name: name}}
	rm.Read(s)
	if s[0].Value.Kind() != rm.KindUint64 {
		return 0
	}
	return int64(min(s[0].Value.Uint64(), math.MaxInt64))
}

// readRuntimeHistogram folds a runtime Float64Histogram of seconds into
// the repo's log-bucketed nanosecond Histogram: each runtime bucket's
// count is attributed to the bucket's midpoint (upper edge for the
// half-open extremes). Quantiles inherit the coarser of the two bucket
// layouts — fine for p50/p99 dashboards, not for exact tails.
func readRuntimeHistogram(name string) metrics.Histogram {
	s := []rm.Sample{{Name: name}}
	rm.Read(s)
	var out metrics.Histogram
	if s[0].Value.Kind() != rm.KindFloat64Histogram {
		return out
	}
	h := s[0].Value.Float64Histogram()
	if h == nil {
		return out
	}
	// Buckets has len(Counts)+1 boundaries; Counts[i] covers
	// [Buckets[i], Buckets[i+1]).
	for i, c := range h.Counts {
		if c == 0 || i+1 >= len(h.Buckets) {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var rep float64
		switch {
		case math.IsInf(lo, -1):
			rep = hi
		case math.IsInf(hi, 1):
			rep = lo
		default:
			rep = (lo + hi) / 2
		}
		out.ObserveN(int64(rep*1e9), int64(min(c, math.MaxInt64)))
	}
	return out
}
