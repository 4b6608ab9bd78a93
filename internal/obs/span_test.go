package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSpanRingRetainsAndWraps(t *testing.T) {
	r := NewSpanRing(4, []string{"read", "write"})
	for i := 0; i < 6; i++ {
		r.Push(Span{Trace: uint64(i + 1), Kind: "data", Stages: [MaxSpanStages]int64{10, 20}})
	}
	if got := r.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	if got := r.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	for i, s := range snap {
		if want := uint64(i + 3); s.Trace != want {
			t.Errorf("snap[%d].Trace = %d, want %d (oldest first)", i, s.Trace, want)
		}
		if s.Time.IsZero() {
			t.Errorf("snap[%d].Time unset", i)
		}
	}
}

// TestSpanRingRejectsExtraStages: a stage name past MaxSpanStages would
// be lost from every dump, so the ring refuses it at construction.
func TestSpanRingRejectsExtraStages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSpanRing took more stage names than MaxSpanStages")
		}
	}()
	NewSpanRing(8, make([]string, MaxSpanStages+1))
}

func TestSpanRingWriteJSONL(t *testing.T) {
	r := NewSpanRing(8, []string{"read", "dispatch", "apply", "write"})
	r.Push(Span{Trace: 7, Kind: "stats", Shard: 2, Session: 11, TotalNs: 100,
		Stages: [MaxSpanStages]int64{40, 10, 30, 20}})
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want meta + 1 span:\n%s", len(lines), b.String())
	}
	var meta struct {
		SpanMeta bool     `json:"span_meta"`
		Total    uint64   `json:"total"`
		Retained int      `json:"retained"`
		Stages   []string `json:"stages"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatal(err)
	}
	if !meta.SpanMeta || meta.Total != 1 || meta.Retained != 1 || len(meta.Stages) != 4 {
		t.Errorf("meta = %+v", meta)
	}
	var span struct {
		Trace   uint64           `json:"trace"`
		Kind    string           `json:"kind"`
		TotalNs int64            `json:"total_ns"`
		StageNs map[string]int64 `json:"stage_ns"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &span); err != nil {
		t.Fatal(err)
	}
	if span.Trace != 7 || span.Kind != "stats" || span.TotalNs != 100 {
		t.Errorf("span = %+v", span)
	}
	if span.StageNs["read"] != 40 || span.StageNs["dispatch"] != 10 ||
		span.StageNs["apply"] != 30 || span.StageNs["write"] != 20 {
		t.Errorf("stage_ns = %v", span.StageNs)
	}
}

// TestSpanRingConcurrentSampleDrain races pushers against the snapshot
// and JSONL dumps that drain the ring to readers — the live /spans
// serving pattern — and checks that every dump is a run of whole spans,
// each at most once, and that what the ring retains and what it dropped
// add up to what was pushed.
func TestSpanRingConcurrentSampleDrain(t *testing.T) {
	const (
		pushers  = 4
		perG     = 500
		capacity = 64
	)
	r := NewSpanRing(capacity, []string{"read"})
	var wg sync.WaitGroup
	for w := 0; w < pushers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Push(Span{Trace: uint64(w*perG + i + 1), Kind: "data"})
			}
		}(w)
	}
	stop := make(chan struct{})
	var drainers sync.WaitGroup
	drainers.Add(2)
	go func() {
		defer drainers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			seen := make(map[uint64]bool, len(snap))
			for _, s := range snap {
				if s.Kind != "data" || seen[s.Trace] {
					t.Errorf("snapshot of %d spans holds %+v twice or torn", len(snap), s)
					return
				}
				seen[s.Trace] = true
			}
		}
	}()
	go func() {
		defer drainers.Done()
		var b strings.Builder
		for {
			select {
			case <-stop:
				return
			default:
			}
			b.Reset()
			if err := r.WriteJSONL(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	drainers.Wait()
	total, dropped, retained := r.Total(), r.Dropped(), len(r.Snapshot())
	if total != pushers*perG {
		t.Fatalf("Total = %d, want %d", total, pushers*perG)
	}
	if retained != capacity || uint64(retained)+dropped != total {
		t.Fatalf("retained %d + dropped %d != total %d", retained, dropped, total)
	}
}

func TestSamplerHitsEveryN(t *testing.T) {
	s := NewSampler(4, 2)
	hit := func(stripe int) bool { return s.At(s.Reserve(stripe, 1)) }
	hits := 0
	for i := 0; i < 40; i++ {
		if hit(0) {
			hits++
		}
	}
	if hits != 10 {
		t.Errorf("stripe 0: %d hits over 40 calls at 1-in-4, want 10", hits)
	}
	// Stripes count independently.
	if hit(1) || hit(1) || hit(1) {
		t.Error("stripe 1 sampled before its 4th hit")
	}
	if !hit(1) {
		t.Error("stripe 1 did not sample on its 4th hit")
	}
}

// TestSamplerCoversPeriodicTraffic: a client that repeats a 128-message
// cycle (64 DATA then 64 STATS) against a period of 1024 must not have the
// same message of its cycle sampled every time — the sampled position
// moves from block to block — while every block of 1024 still samples
// exactly one.
func TestSamplerCoversPeriodicTraffic(t *testing.T) {
	const every, cycle, blocks = 1024, 128, 512
	s := NewSampler(every, 1)
	var seen [cycle]int
	for b := 0; b < blocks; b++ {
		hits := 0
		for i := 0; i < every; i++ {
			if s.At(s.Reserve(0, 1)) {
				hits++
				seen[(b*every+i)%cycle]++
			}
		}
		if hits != 1 {
			t.Fatalf("block %d sampled %d of %d calls, want exactly 1", b, hits, every)
		}
	}
	positions, firstHalf := 0, 0
	for pos, n := range seen {
		if n > 0 {
			positions++
		}
		if pos < cycle/2 {
			firstHalf += n
		}
	}
	if positions < cycle*3/4 {
		t.Errorf("%d samples landed on %d of the cycle's %d positions, want most of them", blocks, positions, cycle)
	}
	if firstHalf < blocks/3 || firstHalf > blocks*2/3 {
		t.Errorf("%d of %d samples fell in the first half of the cycle, want about half", firstHalf, blocks)
	}
}

func TestSamplerEveryOneSamplesAll(t *testing.T) {
	s := NewSampler(1, 1)
	for i := 0; i < 5; i++ {
		if !s.At(s.Reserve(0, 1)) {
			t.Fatalf("call %d not sampled at 1-in-1", i)
		}
	}
}

// TestSamplerReserveMatchesHit: a sampler whose positions are taken in
// frames — Reserve(n), then At on each position — samples exactly the
// positions that n one-position reservations, At(Reserve(stripe, 1)),
// sample on a twin sampler, for frames of assorted sizes dealt
// round-robin over several stripes, at periods that are powers of two
// (At shifts) and one that is not (At divides); the nil sampler samples
// nothing either way.
func TestSamplerReserveMatchesHit(t *testing.T) {
	const stripes = 3
	sizes := []int{1, 64, 0, 7, 4096, 3, 1023, 128, 2}
	for _, every := range []uint64{1, 8, 1000, 1024} {
		hit, res := NewSampler(every, stripes), NewSampler(every, stripes)
		sampled := 0
		for f := 0; f < 40; f++ {
			stripe, n := f%stripes, sizes[f%len(sizes)]
			base := res.Reserve(stripe, n)
			for i := 0; i < n; i++ {
				got, want := res.At(base+uint64(i)), hit.At(hit.Reserve(stripe, 1))
				if got != want {
					t.Fatalf("every %d, stripe %d, frame %d: position %d of %d sampled %v, one at a time %v", every, stripe, f, i, n, got, want)
				}
				if got {
					sampled++
				}
			}
		}
		if sampled == 0 {
			t.Errorf("every %d: no position sampled", every)
		}
	}
	var none *Sampler
	if base := none.Reserve(0, 64); base != 0 || none.At(base) || none.At(1023) {
		t.Error("the nil sampler sampled")
	}
}

func TestSpanRingNextTraceTagsStripe(t *testing.T) {
	r := NewSpanRing(4, nil)
	a, b := r.NextTrace(3), r.NextTrace(3)
	if a == b {
		t.Fatal("trace IDs not unique")
	}
	if a>>56 != 3 || b>>56 != 3 {
		t.Errorf("stripe tag lost: %x %x", a, b)
	}
}

func TestSpanRingInstrument(t *testing.T) {
	reg := NewRegistry()
	r := NewSpanRing(2, nil)
	r.Instrument(reg)
	for i := 0; i < 3; i++ {
		r.Push(Span{Trace: uint64(i)})
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if !strings.Contains(body, "dynbw_spans_total 3") ||
		!strings.Contains(body, "dynbw_spans_dropped_total 1") {
		t.Errorf("span ring exposition:\n%s", body)
	}
}
