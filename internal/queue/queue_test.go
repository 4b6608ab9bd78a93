package queue

import (
	"testing"
	"testing/quick"

	"dynbw/internal/bw"
)

func TestEmptyQueue(t *testing.T) {
	var q FIFO
	if q.Bits() != 0 {
		t.Error("zero value should be empty")
	}
	if got := q.Serve(5, 10); got != 0 {
		t.Errorf("Serve on empty = %d", got)
	}
	if q.MaxDelay() != 0 || q.Served() != 0 {
		t.Error("empty queue stats should be zero")
	}
	if new(DelayHist).Quantile(0.5) != 0 {
		t.Error("Quantile on an empty histogram should be 0")
	}
}

func TestPushServeFIFO(t *testing.T) {
	var q FIFO
	q.Push(0, 10)
	q.Push(1, 5)
	if q.Bits() != 15 {
		t.Fatalf("Bits = %d", q.Bits())
	}
	if got := q.Serve(1, 8); got != 8 {
		t.Fatalf("Serve = %d", got)
	}
	if q.Bits() != 7 {
		t.Fatalf("Bits after serve = %d", q.Bits())
	}
	// 8 bits served: all from the tick-0 chunk -> delay 1.
	if q.MaxDelay() != 1 {
		t.Errorf("MaxDelay = %d, want 1", q.MaxDelay())
	}
	if got := q.Serve(4, 100); got != 7 {
		t.Fatalf("drain Serve = %d", got)
	}
	// Remaining 2 bits of tick-0 chunk served at 4 -> delay 4.
	if q.MaxDelay() != 4 {
		t.Errorf("MaxDelay = %d, want 4", q.MaxDelay())
	}
	if q.Served() != 15 {
		t.Errorf("Served = %d", q.Served())
	}
}

func TestSameTickServiceHasZeroDelay(t *testing.T) {
	var q FIFO
	q.Push(7, 4)
	q.Serve(7, 4)
	if q.MaxDelay() != 0 {
		t.Errorf("MaxDelay = %d, want 0", q.MaxDelay())
	}
}

func TestPushZeroIsNoop(t *testing.T) {
	var q FIFO
	q.Push(3, 0)
	if q.Bits() != 0 || len(q.chunks) != 0 {
		t.Error("Push(_, 0) should not enqueue")
	}
}

func TestPushNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative push did not panic")
		}
	}()
	var q FIFO
	q.Push(0, -1)
}

func TestPushOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order push did not panic")
		}
	}()
	var q FIFO
	q.Push(5, 1)
	q.Push(4, 1)
}

func TestServeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative rate did not panic")
		}
	}()
	var q FIFO
	q.Serve(0, -2)
}

// histQueue returns a queue recording its served delays into a fresh
// histogram, as sim.Session wires them.
func histQueue() (*FIFO, *DelayHist) {
	q, h := &FIFO{}, &DelayHist{}
	h.Attach(q)
	return q, h
}

func TestDelayQuantile(t *testing.T) {
	q, h := histQueue()
	q.Push(0, 90) // will be served with delay 0
	q.Serve(0, 90)
	q.Push(1, 10) // served with delay 9
	q.Serve(10, 10)
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %d, want 0", got)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("p50 = %d, want 0", got)
	}
	if got := h.Quantile(0.9); got != 0 {
		t.Errorf("p90 = %d, want 0 (exactly 90 of 100 bits had delay 0)", got)
	}
	if got := h.Quantile(0.95); got != 9 {
		t.Errorf("p95 = %d, want 9", got)
	}
	if got := h.Quantile(1.0); got != 9 {
		t.Errorf("p100 = %d, want 9", got)
	}
}

// TestNoHistogramUnlessAttached: a bare FIFO — a gateway slot — keeps
// its counters but never allocates histogram buckets.
func TestNoHistogramUnlessAttached(t *testing.T) {
	var q FIFO
	q.Push(0, 4)
	q.Serve(700, 4)
	if q.hist != nil {
		t.Fatal("bare FIFO grew a histogram")
	}
	if q.MaxDelay() != 700 || q.Served() != 4 {
		t.Errorf("MaxDelay/Served = %d/%d, want 700/4", q.MaxDelay(), q.Served())
	}
}

func TestCompaction(t *testing.T) {
	var q FIFO
	// Many push/serve cycles must not grow the chunk slice without bound.
	for t2 := bw.Tick(0); t2 < 10000; t2++ {
		q.Push(t2, 3)
		q.Serve(t2, 3)
	}
	if len(q.chunks) > 4096 {
		t.Errorf("chunk slice grew to %d entries", len(q.chunks))
	}
	if q.Served() != 30000 {
		t.Errorf("Served = %d", q.Served())
	}
}

// Property: conservation — pushed bits = served bits + queued bits, and
// serve never exceeds the requested rate.
func TestConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		var q FIFO
		var pushed bw.Bits
		now := bw.Tick(0)
		for _, op := range ops {
			amt := bw.Bits(op % 64)
			if op%2 == 0 {
				q.Push(now, amt)
				pushed += amt
			} else {
				got := q.Serve(now, amt)
				if got > amt {
					return false
				}
			}
			now++
		}
		return pushed == q.Served()+q.Bits()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// oldestArrival is the arrival tick of the oldest queued bit, false when
// the queue is empty.
func oldestArrival(q *FIFO) (bw.Tick, bool) {
	if q.Bits() == 0 {
		return 0, false
	}
	return q.chunks[q.head].arrived, true
}

// Property: FIFO order — with strictly increasing service ticks, the delay
// sequence of served chunks never violates first-come-first-served (an
// earlier-arriving bit is never served after a later-arriving one).
func TestFIFOOrderProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var q FIFO
		var lastArrivalServed bw.Tick = -1
		now := bw.Tick(0)
		for _, v := range raw {
			q.Push(now, bw.Bits(v%16))
			// Serve a prefix and verify ordering via the head chunk.
			before, okBefore := oldestArrival(&q)
			q.Serve(now, bw.Rate(v%8))
			after, okAfter := oldestArrival(&q)
			if okBefore && okAfter && after < before {
				return false
			}
			if okBefore && before < lastArrivalServed {
				return false
			}
			if okBefore && !okAfter {
				lastArrivalServed = now
			}
			now++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPushServe(b *testing.B) {
	var q FIFO
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := bw.Tick(i)
		q.Push(t, 64)
		q.Serve(t, 64)
	}
}

func TestResetMatchesFresh(t *testing.T) {
	// A used-then-Reset queue and histogram must behave exactly like
	// zero-value ones.
	used, usedHist := histQueue()
	used.Push(0, 100)
	used.Serve(3, 40)
	used.Serve(9, 1000)
	used.Reset()
	usedHist.Reset()

	fresh, freshHist := histQueue()
	for _, q := range []*FIFO{used, fresh} {
		q.Push(0, 8)
		q.Push(2, 4)
		q.Serve(2, 6)
		q.Serve(5, 100)
	}
	if used.Bits() != fresh.Bits() || used.Served() != fresh.Served() ||
		used.MaxDelay() != fresh.MaxDelay() {
		t.Fatalf("reset queue diverged: bits %d/%d served %d/%d maxDelay %d/%d",
			used.Bits(), fresh.Bits(), used.Served(), fresh.Served(),
			used.MaxDelay(), fresh.MaxDelay())
	}
	for _, p := range []float64{0.01, 0.5, 0.99, 1} {
		if usedHist.Quantile(p) != freshHist.Quantile(p) {
			t.Errorf("Quantile(%v) = %d, want %d", p, usedHist.Quantile(p), freshHist.Quantile(p))
		}
	}
}

func TestResetKeepsHistogramStorage(t *testing.T) {
	q, h := histQueue()
	q.Push(0, 1)
	q.Serve(100, 1) // forces the histogram past histMin
	grown := len(h.counts)
	if grown < 128 {
		t.Fatalf("histogram did not grow: len %d", grown)
	}
	q.Reset()
	h.Reset()
	if len(h.counts) != grown {
		t.Fatalf("Reset shrank histogram: len %d, want %d", len(h.counts), grown)
	}
	for i, c := range h.counts {
		if c != 0 {
			t.Fatalf("Reset left count %d at delay %d", c, i)
		}
	}
	if h.Quantile(1) != 0 {
		t.Fatalf("Quantile(1) = %d after Reset, want 0", h.Quantile(1))
	}
}

func TestDelayHistGrowsGeometrically(t *testing.T) {
	q, h := histQueue()
	q.Push(0, 1)
	q.Serve(0, 1)
	if len(h.counts) != histMin {
		t.Fatalf("first record allocated %d buckets, want %d", len(h.counts), histMin)
	}
	q.Push(1, 1)
	q.Serve(1+histMin, 1) // one past the first allocation: a single doubling
	if len(h.counts) != 2*histMin {
		t.Fatalf("delay %d grew histogram to %d, want %d", histMin, len(h.counts), 2*histMin)
	}
	q.Push(100, 1)
	q.Serve(100+500, 1)
	if len(h.counts) != 512 {
		t.Fatalf("delay 500 grew histogram to %d, want 512", len(h.counts))
	}
	if h.counts[0] != 1 || h.counts[histMin] != 1 {
		t.Fatalf("growth lost earlier counts: [0]=%d [%d]=%d", h.counts[0], histMin, h.counts[histMin])
	}
	if got := h.Quantile(1); got != 500 {
		t.Fatalf("Quantile(1) = %d, want 500", got)
	}
}

func TestDelayHistCapStillAccumulates(t *testing.T) {
	q, h := histQueue()
	q.Push(0, 2)
	q.Serve(histCap+100, 2) // beyond the cap: lands in the last bucket
	if len(h.counts) != histCap {
		t.Fatalf("histogram len %d, want cap %d", len(h.counts), histCap)
	}
	if got := h.Quantile(0.5); got != histCap-1 {
		t.Fatalf("capped quantile = %d, want %d", got, histCap-1)
	}
	if q.MaxDelay() != histCap+100 {
		t.Fatalf("MaxDelay = %d", q.MaxDelay())
	}
}

// BenchmarkServeTypicalDelays: delays stay within a 2*D_O-style bound,
// so only the first histMin buckets of the attached histogram are ever
// touched.
func BenchmarkServeTypicalDelays(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, _ := histQueue()
		for t := bw.Tick(0); t < 64; t++ {
			q.Push(t, 16)
			q.Serve(t, 12)
		}
		q.Serve(64, bw.Rate(q.Bits()))
	}
}

// BenchmarkReuse measures the steady state of a Reset-reused queue:
// zero allocations per run once chunk and histogram storage are warm.
func BenchmarkReuse(b *testing.B) {
	q, h := histQueue()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Reset()
		h.Reset()
		for t := bw.Tick(0); t < 64; t++ {
			q.Push(t, 16)
			q.Serve(t, 12)
		}
		q.Serve(64, bw.Rate(q.Bits()))
	}
}
