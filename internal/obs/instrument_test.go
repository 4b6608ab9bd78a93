package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestStripedCounterSumsStripes(t *testing.T) {
	s := NewCounter(4)
	s.Inc(0)
	s.Add(1, 10)
	s.Add(3, 5)
	s.Add(7, 2)  // reduced modulo the stripe count
	s.Add(2, -9) // negative deltas ignored: counters only go up
	if got := s.Value(); got != 18 {
		t.Errorf("Value = %d, want 18", got)
	}
	if got := len(s.s); got != 4 {
		t.Errorf("%d stripes, want 4", got)
	}
}

func TestStripedCounterConcurrent(t *testing.T) {
	s := NewCounter(8)
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
	h := NewHistogram(4)
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
	s := NewCounter(2)
	s.Add(0, 3)
	s.Add(1, 4)
	reg.CounterFunc("dynbw_test_striped_total", "h", s.Value)
	h := NewHistogram(2)
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

// TestStripedConcurrentEmitScrape races stripe writers against merged
// reads — the live /metrics scrape pattern, where HistogramFunc merges
// stripes while shard workers are still observing.
func TestStripedConcurrentEmitScrape(t *testing.T) {
	const writers, perG = 4, 2000
	c := NewCounter(writers)
	h := NewHistogram(writers)
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
