package queue

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"dynbw/internal/bw"
	"dynbw/internal/rng"
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
	if q.Bits() != 0 || q.head != (chunk{}) || q.more != nil {
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
// histogram, as a single-session sim.Runner wires its one slot.
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
	if q.more != nil {
		t.Fatal("bare FIFO holding one chunk grew a side struct")
	}
	if q.MaxDelay() != 700 || q.Served() != 4 {
		t.Errorf("MaxDelay/Served = %d/%d, want 700/4", q.MaxDelay(), q.Served())
	}
}

// TestDrainedChunksAreForgotten: the chunk storage is bounded by the most
// arrival ticks ever queued at once, not by how many have passed through.
// A queue served within its arrival tick needs no side struct at all; one
// that holds three ticks at a time keeps a ring of two behind its head,
// however long it runs.
func TestDrainedChunksAreForgotten(t *testing.T) {
	var q FIFO
	for t2 := bw.Tick(0); t2 < 10000; t2++ {
		q.Push(t2, 3)
		q.Serve(t2, 3)
	}
	if q.more != nil {
		t.Errorf("a queue that never held two ticks allocated a ring of %d", len(q.more.ring))
	}
	if q.Served() != 30000 {
		t.Errorf("Served = %d", q.Served())
	}
	for t2 := bw.Tick(10000); t2 < 20000; t2++ {
		q.Push(t2, 3)
		if t2%3 == 2 {
			q.Serve(t2, 9)
		}
	}
	if q.more == nil || len(q.more.ring) != 2 {
		t.Errorf("three ticks queued at a time: ring of %v, want 2", q.more)
	}
	if q.Bits() != 6 || q.MaxDelay() != 2 { // the last two ticks are still queued
		t.Errorf("Bits/MaxDelay = %d/%d, want 6/2", q.Bits(), q.MaxDelay())
	}
}

func TestSameTickPushesShareAChunk(t *testing.T) {
	var q FIFO
	q.Push(0, 1)
	for i := 0; i < 100; i++ {
		q.Push(5, 2)
	}
	if q.more == nil || q.more.n != 1 || q.more.ring[0] != (chunk{arrived: 5, bits: 200}) {
		t.Fatalf("100 pushes at one tick behind the head: %+v", q.more)
	}
	q.Serve(7, 201)
	if q.Bits() != 0 || q.MaxDelay() != 7 || q.Served() != 201 {
		t.Errorf("Bits/MaxDelay/Served = %d/%d/%d", q.Bits(), q.MaxDelay(), q.Served())
	}
}

// TestFIFOSize pins the slot's share of the layout: the oldest chunk
// inline, the counters, one pointer.
func TestFIFOSize(t *testing.T) {
	if got := unsafe.Sizeof(FIFO{}); got > 48 {
		t.Errorf("unsafe.Sizeof(FIFO{}) = %d B, want <= 48", got)
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
	return q.head.arrived, true
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

// sliceFIFO is the reference model of FIFO: every chunk in one slice
// behind a read index, compacted once the drained prefix dominates, and
// a histogram pointer beside it. It is the layout FIFO had before its
// oldest chunk moved inline, kept to check the new one against.
type sliceFIFO struct {
	chunks   []chunk
	head     int
	bits     bw.Bits
	maxDelay bw.Tick
	served   bw.Bits
	hist     *DelayHist
}

func (q *sliceFIFO) Push(t bw.Tick, bits bw.Bits) {
	if bits == 0 {
		return
	}
	q.chunks = append(q.chunks, chunk{arrived: t, bits: bits})
	q.bits += bits
	if q.head > 64 && q.head*2 >= len(q.chunks) {
		n := copy(q.chunks, q.chunks[q.head:])
		q.chunks = q.chunks[:n]
		q.head = 0
	}
}

func (q *sliceFIFO) Serve(t bw.Tick, rate bw.Rate) bw.Bits {
	budget := bw.Min(rate, q.bits)
	servedNow := budget
	for budget > 0 {
		c := &q.chunks[q.head]
		took := bw.Min(budget, c.bits)
		c.bits -= took
		budget -= took
		if delay := t - c.arrived; delay > q.maxDelay {
			q.maxDelay = delay
		}
		if q.hist != nil {
			q.hist.record(t-c.arrived, took)
		}
		if c.bits == 0 {
			q.head++
		}
	}
	q.bits -= servedNow
	q.served += servedNow
	return servedNow
}

func (q *sliceFIFO) Reset() {
	q.chunks, q.head, q.bits, q.maxDelay, q.served = q.chunks[:0], 0, 0, 0, 0
}

// TestFIFOMatchesSliceModel drives FIFO and the reference model through
// the same seeded sequences of Push (several at one tick, some empty),
// Serve, ServeSpan (the model serving each tick of the span), Reset and
// Attach, and after every step compares the counters
// and, while a histogram is attached, its quantiles.
func TestFIFOMatchesSliceModel(t *testing.T) {
	tests := []struct {
		name    string
		seed    uint64
		steps   int
		maxBits int64 // a push carries [0, maxBits) bits
		maxRate int64 // a serve offers [0, maxRate) bits
		attach  bool  // histograms from the first step
		resets  int   // one step in resets is a Reset (0: never)
	}{
		{name: "drained every tick", seed: 1, steps: 2000, maxBits: 8, maxRate: 64},
		{name: "standing backlog", seed: 2, steps: 4000, maxBits: 64, maxRate: 40, attach: true},
		{name: "backlog outgrows the old compaction", seed: 3, steps: 6000, maxBits: 100, maxRate: 30, attach: true},
		{name: "starved then flushed", seed: 4, steps: 3000, maxBits: 16, maxRate: 3},
		{name: "resets and late attaches", seed: 5, steps: 4000, maxBits: 32, maxRate: 48, resets: 200},
		{name: "single bits", seed: 6, steps: 3000, maxBits: 2, maxRate: 2, attach: true, resets: 500},
	}
	quantiles := []float64{0.01, 0.5, 0.9, 0.99, 1}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := rng.New(tt.seed)
			var got FIFO
			var want sliceFIFO
			var gotHist, wantHist *DelayHist
			attach := func() {
				gotHist, wantHist = &DelayHist{}, &DelayHist{}
				gotHist.Attach(&got)
				want.hist = wantHist
			}
			if tt.attach {
				attach()
			}
			now := bw.Tick(0)
			for step := 0; step < tt.steps; step++ {
				var op string
				switch r := src.Intn(100); {
				case tt.resets > 0 && src.Intn(tt.resets) == 0:
					op = "reset"
					got.Reset()
					want.Reset()
					if gotHist != nil {
						gotHist.Reset()
						wantHist.Reset()
					}
				case tt.resets > 0 && gotHist == nil && r == 0:
					op = "attach"
					attach()
				case r < 45:
					bits := src.Int64n(tt.maxBits)
					op = fmt.Sprintf("push(%d, %d)", now, bits)
					got.Push(now, bits)
					want.Push(now, bits)
				case r < 80:
					rate := src.Int64n(tt.maxRate)
					op = fmt.Sprintf("serve(%d, %d)", now, rate)
					if g, w := got.Serve(now, rate), want.Serve(now, rate); g != w {
						t.Fatalf("step %d %s: served %d, model %d", step, op, g, w)
					}
				case r < 90:
					rate, span := src.Int64n(tt.maxRate), 1+bw.Tick(src.Intn(6))
					op = fmt.Sprintf("serveSpan(%d, %d, %d)", now, now+span-1, rate)
					g, w := got.ServeSpan(now, now+span-1, rate), bw.Bits(0)
					for tick := now; tick < now+span; tick++ {
						w += want.Serve(tick, rate)
					}
					if g != w {
						t.Fatalf("step %d %s: served %d, model %d", step, op, g, w)
					}
					now += span
				default:
					op = "tick"
					now += 1 + bw.Tick(src.Intn(3))
				}
				if got.Bits() != want.bits || got.Served() != want.served || got.MaxDelay() != want.maxDelay {
					t.Fatalf("step %d %s: bits/served/maxDelay %d/%d/%d, model %d/%d/%d", step, op,
						got.Bits(), got.Served(), got.MaxDelay(), want.bits, want.served, want.maxDelay)
				}
				if gotHist == nil {
					continue
				}
				for _, p := range quantiles {
					if g, w := gotHist.Quantile(p), wantHist.Quantile(p); g != w {
						t.Fatalf("step %d %s: Quantile(%v) = %d, model %d", step, op, p, g, w)
					}
				}
			}
			if got.Served() == 0 {
				t.Error("the sequence served nothing")
			}
		})
	}
}

// TestFIFOZeroAllocs: a warm queue, bare or with a histogram attached,
// that builds a backlog of up to 2·D_O arrival ticks and drains it again
// allocates nothing.
func TestFIFOZeroAllocs(t *testing.T) {
	const do = 8
	for _, attached := range []bool{false, true} {
		q := &FIFO{}
		if attached {
			new(DelayHist).Attach(q)
		}
		now := bw.Tick(0)
		cycle := func() {
			for i := 0; i < 2*do; i++ {
				q.Push(now, 5)
				q.Serve(now, 1)
				now++
			}
			for q.Bits() > 0 {
				q.Serve(now, 7)
				now++
			}
		}
		cycle()
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Errorf("attached=%v: %.2f allocations per backlog cycle on a warm queue, want 0", attached, avg)
		}
	}
}

func TestOldest(t *testing.T) {
	var q FIFO
	if _, ok := q.Oldest(); ok {
		t.Fatal("an empty queue reports an oldest bit")
	}
	q.Push(3, 2)
	q.Push(5, 4)
	for _, step := range []struct {
		serve bw.Rate
		at    bw.Tick
		ok    bool
	}{{0, 3, true}, {1, 3, true}, {1, 5, true}, {4, 0, false}} {
		q.Serve(6, step.serve)
		if at, ok := q.Oldest(); ok != step.ok || (ok && at != step.at) {
			t.Fatalf("after serving %d with %d queued: Oldest() = %d, %v; want %d, %v", step.serve, q.Bits(), at, ok, step.at, step.ok)
		}
	}
}

// TestServeSpanMatchesServe: a bulk serve leaves the queue, its counters
// and an attached histogram exactly as one Serve a tick over the same
// span does, and returns the same total. Each case builds a queue by
// pushes, serves part of it first when head is set (so the span starts
// inside a chunk), and then serves span ticks from tick from at rate.
func TestServeSpanMatchesServe(t *testing.T) {
	type push struct {
		at   bw.Tick
		bits bw.Bits
	}
	tests := []struct {
		name   string
		pushes []push
		head   bw.Rate // served at the last push's tick first
		from   bw.Tick
		span   bw.Tick
		rate   bw.Rate
		hist   bool
	}{
		{name: "one chunk", pushes: []push{{0, 40}}, from: 1, span: 3, rate: 7},
		{name: "one chunk emptied", pushes: []push{{0, 40}}, from: 1, span: 10, rate: 7},
		{name: "many chunks", pushes: []push{{0, 5}, {1, 9}, {2, 1}, {4, 30}, {5, 2}}, from: 6, span: 4, rate: 6},
		{name: "many chunks, rate divides them", pushes: []push{{0, 8}, {1, 4}, {3, 12}}, from: 3, span: 5, rate: 4},
		{name: "partial head", pushes: []push{{0, 10}, {2, 10}}, head: 3, from: 3, span: 3, rate: 5},
		{name: "rate 0", pushes: []push{{0, 10}, {1, 3}}, from: 2, span: 6, rate: 0},
		{name: "rate above the queue", pushes: []push{{0, 10}, {1, 3}}, from: 2, span: 6, rate: 100},
		{name: "empty span", pushes: []push{{0, 10}}, from: 5, span: 0, rate: 3},
		{name: "attached histogram", pushes: []push{{0, 7}, {1, 1}, {1, 5}, {3, 20}}, head: 2, from: 4, span: 6, rate: 3, hist: true},
		{name: "attached histogram, one tick", pushes: []push{{0, 7}, {2, 5}}, from: 2, span: 1, rate: 9, hist: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var bulk, loop FIFO
			var bulkHist, loopHist DelayHist
			if tt.hist {
				bulkHist.Attach(&bulk)
				loopHist.Attach(&loop)
			}
			for _, q := range []*FIFO{&bulk, &loop} {
				for _, p := range tt.pushes {
					q.Push(p.at, p.bits)
				}
				q.Serve(tt.pushes[len(tt.pushes)-1].at, tt.head)
			}
			got := bulk.ServeSpan(tt.from, tt.from+tt.span-1, tt.rate)
			want := bw.Bits(0)
			for tick := tt.from; tick < tt.from+tt.span; tick++ {
				want += loop.Serve(tick, tt.rate)
			}
			if got != want {
				t.Errorf("ServeSpan served %d, Serve a tick %d", got, want)
			}
			gat, gok := bulk.Oldest()
			wat, wok := loop.Oldest()
			if bulk.Bits() != loop.Bits() || bulk.Served() != loop.Served() || bulk.MaxDelay() != loop.MaxDelay() || gok != wok || gat != wat {
				t.Errorf("bits/served/max delay/oldest %d/%d/%d/%d,%v, Serve a tick %d/%d/%d/%d,%v",
					bulk.Bits(), bulk.Served(), bulk.MaxDelay(), gat, gok, loop.Bits(), loop.Served(), loop.MaxDelay(), wat, wok)
			}
			if fmt.Sprint(chunks(&bulk)) != fmt.Sprint(chunks(&loop)) {
				t.Errorf("chunks %v, Serve a tick %v", chunks(&bulk), chunks(&loop))
			}
			if fmt.Sprint(bulkHist.counts, bulkHist.total) != fmt.Sprint(loopHist.counts, loopHist.total) {
				t.Errorf("histogram %v (%d), Serve a tick %v (%d)", bulkHist.counts, bulkHist.total, loopHist.counts, loopHist.total)
			}
		})
	}
}

// chunks lists a queue's chunks, oldest first.
func chunks(q *FIFO) []chunk {
	if q.head.bits == 0 {
		return nil
	}
	out := []chunk{q.head}
	if m := q.more; m != nil {
		for j := range m.n {
			out = append(out, m.ring[(m.start+j)&(len(m.ring)-1)])
		}
	}
	return out
}

// TestServeSpanZeroAllocs: a bulk serve over a warm queue, bare or with
// a histogram attached, allocates nothing.
func TestServeSpanZeroAllocs(t *testing.T) {
	for _, attached := range []bool{false, true} {
		q := &FIFO{}
		if attached {
			new(DelayHist).Attach(q)
		}
		now := bw.Tick(0)
		cycle := func() {
			for i := 0; i < 8; i++ {
				q.Push(now+bw.Tick(i), 5)
			}
			now += 8
			q.ServeSpan(now, now+20, 3)
			now += 21
		}
		cycle()
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Errorf("attached=%v: %.2f allocations per bulk serve on a warm queue, want 0", attached, avg)
		}
	}
}
