package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynbw/internal/obs"
)

// promA and promB are two consecutive scrapes of a small gateway: 100
// DATA messages and 200 ticks happen in between, and the read-stage
// histogram gains 100 observations across three buckets.
const promA = `# HELP dynbw_gateway_messages_total Wire messages handled, by type.
# TYPE dynbw_gateway_messages_total counter
dynbw_gateway_messages_total{type="data"} 1000
dynbw_gateway_messages_total{type="open"} 10
dynbw_gateway_active_sessions 10
dynbw_gateway_ticks_total 1000
dynbw_gateway_arrived_bits_total 5000
dynbw_gateway_allocation_changes_total{policy="phased"} 40
# TYPE dynbw_gateway_stage_ns histogram
dynbw_gateway_stage_ns_bucket{stage="read",le="100"} 500
dynbw_gateway_stage_ns_bucket{stage="read",le="200"} 900
dynbw_gateway_stage_ns_bucket{stage="read",le="400"} 1000
dynbw_gateway_stage_ns_bucket{stage="read",le="+Inf"} 1000
dynbw_gateway_stage_ns_sum{stage="read"} 120000
dynbw_gateway_stage_ns_count{stage="read"} 1000
# TYPE dynbw_gateway_shard_tick_ns histogram
dynbw_gateway_shard_tick_ns_bucket{shard="0",le="1000"} 900
dynbw_gateway_shard_tick_ns_bucket{shard="0",le="2000"} 1000
dynbw_gateway_shard_tick_ns_bucket{shard="0",le="+Inf"} 1000
dynbw_gateway_shard_tick_ns_sum{shard="0"} 700000
dynbw_gateway_shard_tick_ns_count{shard="0"} 1000
`

const promB = `dynbw_gateway_messages_total{type="data"} 1100
dynbw_gateway_messages_total{type="open"} 10
dynbw_gateway_active_sessions 12
dynbw_gateway_active_slots 3
dynbw_gateway_ticks_total 1200
dynbw_gateway_arrived_bits_total 6000
dynbw_gateway_allocation_changes_total{policy="phased"} 60
dynbw_gateway_stage_ns_bucket{stage="read",le="100"} 550
dynbw_gateway_stage_ns_bucket{stage="read",le="200"} 990
dynbw_gateway_stage_ns_bucket{stage="read",le="400"} 1100
dynbw_gateway_stage_ns_bucket{stage="read",le="+Inf"} 1100
dynbw_gateway_stage_ns_sum{stage="read"} 135000
dynbw_gateway_stage_ns_count{stage="read"} 1100
dynbw_gateway_shard_tick_ns_bucket{shard="0",le="1000"} 1080
dynbw_gateway_shard_tick_ns_bucket{shard="0",le="2000"} 1200
dynbw_gateway_shard_tick_ns_bucket{shard="0",le="+Inf"} 1200
dynbw_gateway_shard_tick_ns_sum{shard="0"} 840000
dynbw_gateway_shard_tick_ns_count{shard="0"} 1200
`

func TestParseProm(t *testing.T) {
	s := parseProm(promA, time.Unix(0, 0))
	if got := s.scalars[`dynbw_gateway_messages_total{type="data"}`]; got != 1000 {
		t.Errorf("data messages = %d, want 1000", got)
	}
	if got := s.scalars["dynbw_gateway_active_sessions"]; got != 10 {
		t.Errorf("sessions = %d, want 10", got)
	}
	// Cumulative buckets are read back to each bucket's own count.
	h := s.hists[`dynbw_gateway_stage_ns{stage="read"}`]
	if len(h) != 3 || h[100] != 500 || h[200] != 400 || h[400] != 100 {
		t.Errorf("read stage buckets = %v, want 500 at 100, 400 at 200, 100 at 400", h)
	}
	// Histogram helper lines must not leak into the scalar map.
	for _, key := range []string{
		`dynbw_gateway_stage_ns_sum{stage="read"}`,
		`dynbw_gateway_stage_ns_count{stage="read"}`,
		`dynbw_gateway_stage_ns_bucket{stage="read",le="100"}`,
	} {
		if _, ok := s.scalars[key]; ok {
			t.Errorf("histogram line %s parsed as scalar", key)
		}
	}
}

func TestStripLE(t *testing.T) {
	for _, tc := range []struct {
		in   string
		le   int64
		rest string
		ok   bool
	}{
		{`{stage="read",le="100"}`, 100, `{stage="read"}`, true},
		{`{le="+Inf"}`, math.MaxInt64, "", true},
		{`{stage="read"}`, 0, `{stage="read"}`, false},
		{"", 0, "", false},
	} {
		le, rest, ok := stripLE(tc.in)
		if le != tc.le || rest != tc.rest || ok != tc.ok {
			t.Errorf("stripLE(%q) = %d %q %v, want %d %q %v", tc.in, le, rest, ok, tc.le, tc.rest, tc.ok)
		}
	}
}

// TestDeltaAndQuantile reads window percentiles from two real registry
// scrapes. The window adds 5 samples at 100 ns, 5 at 200 ns and 10 at
// 400 ns, the last in a bucket the first scrape did not render: the
// window's bucket is its 10 samples, not its whole history, and the
// percentiles are the upper bounds of the registry's buckets they fall
// in (103, 207 and 415 ns).
func TestDeltaAndQuantile(t *testing.T) {
	reg := obs.NewRegistry()
	read := reg.Histogram("dynbw_gateway_stage_ns", "h", 1, obs.L("stage", "read"))
	observe := func(v int64, n int) {
		for i := 0; i < n; i++ {
			read.Observe(0, v)
		}
	}
	scrapeReg := func(at int64) *scrape {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return parseProm(b.String(), time.Unix(at, 0))
	}
	observe(100, 50)
	observe(200, 40)
	a := scrapeReg(0)
	observe(100, 5)
	observe(200, 5)
	observe(400, 10)
	b := scrapeReg(2)

	var sb strings.Builder
	dashboard(&sb, "test:1", 2*time.Second, a, b)
	if want := "  read       207ns / 415ns  (20 timed)\n"; !strings.Contains(sb.String(), want) {
		t.Errorf("dashboard lacks %q:\n%s", want, sb.String())
	}
	d := since(a.hists[`dynbw_gateway_stage_ns{stage="read"}`], b.hists[`dynbw_gateway_stage_ns{stage="read"}`])
	for _, q := range []struct {
		p    float64
		want int64
	}{{0.25, 103}, {0.5, 207}, {0.9, 415}, {0.99, 415}} {
		if got := d.Quantile(q.p); got != q.want {
			t.Errorf("window p%v = %d ns, want %d", 100*q.p, got, q.want)
		}
	}
	// Without an earlier scrape the window is the whole history.
	if got := since(nil, b.hists[`dynbw_gateway_stage_ns{stage="read"}`]).Count(); got != 110 {
		t.Errorf("whole-history count = %d, want 110", got)
	}
}

func TestDashboard(t *testing.T) {
	a := parseProm(promA, time.Unix(0, 0))
	b := parseProm(promB, time.Unix(2, 0))
	var sb strings.Builder
	dashboard(&sb, "test:1", 2*time.Second, a, b)
	out := sb.String()
	for _, want := range []string{
		"messages/s  50  data 50",                            // 100 DATA over 2s
		"bits/s      arrived 500",                            // 1000 bits over 2s
		"alloc changes/s 10",                                 // 20 over 2s, via the policy label scan
		"sessions    12 open  3 with work in the last round", // gauges from the second scrape
		"ticks/s     100",                                    // 200 over 2s
		"read",                                               // stage percentile line present
		"shard tick p99 over window",
		"shard 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q in:\n%s", want, out)
		}
	}
}

// TestTicksLine pins the rendering of the ticks line, the inline share in
// particular: the share of the window's rounds the tick loop ran itself,
// from the two path counters' deltas, rounded; "-" when the window holds
// no round, or the gateway predates the counters.
func TestTicksLine(t *testing.T) {
	const (
		ticks  = "dynbw_gateway_ticks_total"
		inline = `dynbw_gateway_tick_rounds_total{path="inline"}`
		fanout = `dynbw_gateway_tick_rounds_total{path="fanout"}`
	)
	for _, tc := range []struct {
		name      string
		prev, cur map[string]int64
		want      string
	}{
		{
			name: "mixed",
			prev: map[string]int64{ticks: 1000, inline: 900, fanout: 100},
			cur:  map[string]int64{ticks: 1200, inline: 1050, fanout: 150, "dynbw_gateway_tick_imbalance_permille": 1310},
			want: "ticks/s     100  inline 75%  overruns +0  imbalance 1310 permille\n",
		},
		{
			name: "idle gateway: every round inline",
			prev: map[string]int64{ticks: 10, inline: 10},
			cur:  map[string]int64{ticks: 2010, inline: 2010, fanout: 0},
			want: "ticks/s     1000  inline 100%  overruns +0  imbalance 0 permille\n",
		},
		{
			name: "saturated: every round fanned out, some over budget",
			prev: map[string]int64{ticks: 50, inline: 40, fanout: 10, "dynbw_gateway_tick_overruns_total": 1},
			cur:  map[string]int64{ticks: 450, inline: 40, fanout: 410, "dynbw_gateway_tick_overruns_total": 8},
			want: "ticks/s     200  inline 0%  overruns +7  imbalance 0 permille\n",
		},
		{
			name: "rounds to the nearest percent",
			prev: map[string]int64{},
			cur:  map[string]int64{ticks: 3, inline: 2, fanout: 1},
			want: "ticks/s     2  inline 67%  overruns +0  imbalance 0 permille\n",
		},
		{
			name: "clock stopped",
			prev: map[string]int64{ticks: 77, inline: 70, fanout: 7},
			cur:  map[string]int64{ticks: 77, inline: 70, fanout: 7},
			want: "ticks/s     0  inline -  overruns +0  imbalance 0 permille\n",
		},
		{
			name: "a gateway without the path counters",
			prev: map[string]int64{ticks: 1000},
			cur:  map[string]int64{ticks: 1200},
			want: "ticks/s     100  inline -  overruns +0  imbalance 0 permille\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := &scrape{scalars: tc.prev}
			cur := &scrape{scalars: tc.cur}
			var sb strings.Builder
			dashboard(&sb, "test:1", 2*time.Second, prev, cur)
			var got string
			for _, line := range strings.SplitAfter(sb.String(), "\n") {
				if strings.HasPrefix(line, "ticks/s") {
					got = line
				}
			}
			if got != tc.want {
				t.Errorf("ticks line:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestRunScrapesTwice drives run against a canned /metrics server: the
// first scrape sees promA, every later one promB.
func TestRunScrapesTwice(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		if n.Add(1) == 1 {
			w.Write([]byte(promA))
			return
		}
		w.Write([]byte(promB))
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	var sb strings.Builder
	if err := run([]string{"-addr", addr, "-interval", "10ms"}, &sb); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 2 {
		t.Errorf("scraped %d times, want 2", got)
	}
	if !strings.Contains(sb.String(), "bwstat "+addr) || !strings.Contains(sb.String(), "data") {
		t.Errorf("unexpected dashboard:\n%s", sb.String())
	}
}

func TestRunRejectsBadInterval(t *testing.T) {
	if err := run([]string{"-interval", "0s"}, &strings.Builder{}); err == nil {
		t.Error("zero interval accepted")
	}
}
