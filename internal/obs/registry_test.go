package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestCounterAndGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dynbw_test_total", "Test counter.", 1)
	c.Inc(0)
	c.Add(0, 4)
	c.Add(0, -7) // ignored: counters only go up
	g := r.Gauge("dynbw_test_depth", "Test gauge.", 1)
	g.Set(0, 10)
	g.Add(0, -3)
	r.GaugeFunc("dynbw_test_fn", "Func gauge.", func() int64 { return 42 })

	out := render(t, r)
	for _, want := range []string{
		"# HELP dynbw_test_total Test counter.",
		"# TYPE dynbw_test_total counter",
		"dynbw_test_total 5",
		"# TYPE dynbw_test_depth gauge",
		"dynbw_test_depth 7",
		"dynbw_test_fn 42",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelsSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	// Keys given out of order must render sorted so the series identity
	// is stable regardless of call-site ordering.
	c1 := r.Counter("dynbw_lbl_total", "h", 1, L("zeta", "1"), L("alpha", "2"))
	c2 := r.Counter("dynbw_lbl_total", "h", 1, L("alpha", "2"), L("zeta", "1"))
	if c1 != c2 {
		t.Error("same label set in different order produced distinct series")
	}
	c1.Inc(0)
	r.Counter("dynbw_lbl_total", "h", 1, L("alpha", "a\"b\\c\nd")).Add(0, 2)

	out := render(t, r)
	if !strings.Contains(out, `dynbw_lbl_total{alpha="2",zeta="1"} 1`) {
		t.Errorf("labels not sorted by key:\n%s", out)
	}
	if !strings.Contains(out, `dynbw_lbl_total{alpha="a\"b\\c\nd"} 2`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dynbw_idem_total", "h", 1, L("k", "v"))
	b := r.Counter("dynbw_idem_total", "ignored on re-register", 4, L("k", "v"))
	if a != b {
		t.Error("re-registration returned a new counter")
	}
	if h1, h2 := r.Histogram("dynbw_idem_ns", "h", 2), r.Histogram("dynbw_idem_ns", "h", 2); h1 != h2 {
		t.Error("re-registration returned a new histogram")
	}
}

func TestTypeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dynbw_clash", "h", 1)
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge over a counter did not panic")
		}
	}()
	r.Gauge("dynbw_clash", "h", 1)
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dynbw_lat_ns", "Latency.", 1, L("policy", "phased"))
	for _, v := range []int64{1, 1, 5, 100} {
		h.Observe(0, v)
	}
	out := render(t, r)
	if !strings.Contains(out, "# TYPE dynbw_lat_ns histogram") {
		t.Errorf("missing histogram TYPE line:\n%s", out)
	}
	for _, want := range []string{
		`dynbw_lat_ns_bucket{policy="phased",le="+Inf"} 4`,
		`dynbw_lat_ns_sum{policy="phased"} 107`,
		`dynbw_lat_ns_count{policy="phased"} 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Bucket counts must be cumulative and end at the total count.
	var last int64 = -1
	buckets := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "dynbw_lat_ns_bucket") {
			continue
		}
		buckets++
		var v int64
		fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v)
		if v < last {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		last = v
	}
	if buckets < 2 || last != 4 {
		t.Errorf("got %d bucket lines ending at %d, want >=2 ending at 4:\n%s", buckets, last, out)
	}
}

func TestNilRegistryAndInstrumentsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "h", 1)
	g := r.Gauge("x2", "h", 1)
	h := r.Histogram("x3", "h", 1)
	r.GaugeFunc("x4", "h", func() int64 { return 1 })
	c.Inc(0)
	c.Add(0, 3)
	g.Set(0, 2)
	g.Add(0, 1)
	h.Observe(0, 5)
	snap := h.Snapshot()
	if c.Value() != 0 || g.Value() != 0 || snap.Count() != 0 {
		t.Error("nil instruments retained values")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("dynbw_conc_total", "h", 1, L("w", fmt.Sprint(id%4))).Inc(0)
				r.Histogram("dynbw_conc_ns", "h", 4).Observe(id, int64(j))
				render(t, r)
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, line := range strings.Split(render(t, r), "\n") {
		if strings.HasPrefix(line, "dynbw_conc_total{") {
			var v int64
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v)
			total += v
		}
	}
	if total != 8*200 {
		t.Errorf("concurrent increments lost: total = %d, want %d", total, 8*200)
	}
}
