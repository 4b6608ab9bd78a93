package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestStripedCounterSumsStripes(t *testing.T) {
	s := NewStriped(4)
	s.Inc(0)
	s.Add(1, 10)
	s.Add(3, 5)
	s.Add(7, 2)  // reduced modulo the stripe count
	s.Add(2, -9) // negative deltas ignored, as with Counter
	if got := s.Value(); got != 18 {
		t.Errorf("Value = %d, want 18", got)
	}
	if got := s.Stripes(); got != 4 {
		t.Errorf("Stripes = %d, want 4", got)
	}
}

func TestStripedCounterConcurrent(t *testing.T) {
	s := NewStriped(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Inc(w)
			}
		}(w)
	}
	wg.Wait()
	if got := s.Value(); got != 8000 {
		t.Errorf("Value = %d, want 8000", got)
	}
}

func TestStripedHistogramMergesStripes(t *testing.T) {
	h := NewStripedHistogram(4)
	for stripe := 0; stripe < 4; stripe++ {
		for i := 0; i < 10; i++ {
			h.Observe(stripe, int64(1+stripe))
		}
	}
	snap := h.Snapshot()
	if got := snap.Count(); got != 40 {
		t.Errorf("merged Count = %d, want 40", got)
	}
	if got := snap.Sum(); got != 10*(1+2+3+4) {
		t.Errorf("merged Sum = %d, want 100", got)
	}
}

func TestRegistryCounterFuncAndHistogramFunc(t *testing.T) {
	reg := NewRegistry()
	s := NewStriped(2)
	s.Add(0, 3)
	s.Add(1, 4)
	reg.CounterFunc("dynbw_test_striped_total", "h", s.Value)
	h := NewStripedHistogram(2)
	h.Observe(0, 5)
	h.Observe(1, 9)
	reg.HistogramFunc("dynbw_test_striped_ns", "h", h.Snapshot)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if !strings.Contains(body, "# TYPE dynbw_test_striped_total counter") ||
		!strings.Contains(body, "dynbw_test_striped_total 7") {
		t.Errorf("CounterFunc exposition:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE dynbw_test_striped_ns histogram") ||
		!strings.Contains(body, "dynbw_test_striped_ns_count 2") ||
		!strings.Contains(body, "dynbw_test_striped_ns_sum 14") {
		t.Errorf("HistogramFunc exposition:\n%s", body)
	}
}

func TestShardedRingMergesSeqOrdered(t *testing.T) {
	r := NewShardedRing(64, 4)
	for i := 0; i < 12; i++ {
		r.Stripe(i % 4).Event(Event{Type: EventRenegotiateUp, Session: i})
	}
	if got := r.Total(); got != 12 {
		t.Fatalf("Total = %d, want 12", got)
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	snap := r.Snapshot()
	if len(snap) != 12 {
		t.Fatalf("Snapshot len = %d, want 12", len(snap))
	}
	for i, e := range snap {
		if e.Seq != uint64(i) {
			t.Errorf("snap[%d].Seq = %d, want %d", i, e.Seq, i)
		}
		if e.Session != i {
			t.Errorf("snap[%d].Session = %d, want %d", i, e.Session, i)
		}
	}
}

func TestShardedRingDropsCounted(t *testing.T) {
	// 8 total over 4 stripes = 2 per stripe; 5 events on one stripe
	// overwrite 3.
	r := NewShardedRing(8, 4)
	for i := 0; i < 5; i++ {
		r.Stripe(1).Event(Event{Type: EventOverflow, Session: i})
	}
	if got := r.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 { // meta + 2 retained
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), b.String())
	}
	var meta struct {
		RingMeta bool   `json:"ring_meta"`
		Total    uint64 `json:"total"`
		Retained int    `json:"retained"`
		Dropped  uint64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatal(err)
	}
	if !meta.RingMeta || meta.Total != 5 || meta.Retained != 2 || meta.Dropped != 3 {
		t.Errorf("meta = %+v", meta)
	}
}

func TestShardedRingConcurrentStripes(t *testing.T) {
	r := NewShardedRing(1024, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Stripe(w)
			for i := 0; i < 100; i++ {
				h.Event(Event{Type: EventRenegotiateUp, Session: w})
			}
		}(w)
	}
	wg.Wait()
	if got := r.Total(); got != 800 {
		t.Fatalf("Total = %d, want 800", got)
	}
	snap := r.Snapshot()
	if len(snap) != 800 {
		t.Fatalf("Snapshot len = %d, want 800", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("Seq gap: %d then %d", snap[i-1].Seq, snap[i].Seq)
		}
	}
}

func TestRingInstrumentExportsDrops(t *testing.T) {
	reg := NewRegistry()
	r := NewRing(2)
	r.Instrument(reg)
	for i := 0; i < 5; i++ {
		r.Event(Event{Type: EventOverflow, Session: i})
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if !strings.Contains(body, "dynbw_events_total 5") ||
		!strings.Contains(body, "dynbw_events_dropped_total 3") {
		t.Errorf("instrumented ring exposition:\n%s", body)
	}
}

// TestStripedConcurrentEmitScrape races stripe writers against merged
// reads — the live /metrics scrape pattern, where HistogramFunc merges
// stripes while shard workers are still observing.
func TestStripedConcurrentEmitScrape(t *testing.T) {
	const writers, perG = 4, 2000
	c := NewStriped(writers)
	h := NewStripedHistogram(writers)
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c.Value() < 0 {
				t.Error("merged counter went negative")
				return
			}
			snap := h.Snapshot()
			if snap.Count() < 0 || snap.Sum() < 0 {
				t.Error("merged histogram snapshot inconsistent")
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc(w)
				h.Observe(w, int64(i%100+1))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if got := c.Value(); got != writers*perG {
		t.Errorf("counter Value = %d, want %d", got, writers*perG)
	}
	if snap := h.Snapshot(); snap.Count() != writers*perG {
		t.Errorf("histogram Count = %d, want %d", snap.Count(), writers*perG)
	}
}

// TestShardedRingConcurrentEmitScrape races per-stripe emitters against
// merged Snapshot/WriteJSONL dumps (the /events serving pattern).
func TestShardedRingConcurrentEmitScrape(t *testing.T) {
	const stripes, perG = 4, 1000
	r := NewShardedRing(stripes, 32)
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		var b strings.Builder
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			for i := 1; i < len(snap); i++ {
				if snap[i].Seq < snap[i-1].Seq {
					t.Errorf("merged snapshot out of order at %d", i)
					return
				}
			}
			b.Reset()
			if err := r.WriteJSONL(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < stripes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obsr := r.Stripe(w)
			for i := 0; i < perG; i++ {
				obsr.Event(Event{Type: EventSessionOpen, Session: w*perG + i})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if got := r.Total(); got != stripes*perG {
		t.Errorf("Total = %d, want %d", got, stripes*perG)
	}
}
