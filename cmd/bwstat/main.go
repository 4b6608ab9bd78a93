// Command bwstat is a one-screen text dashboard for a running gateway:
// it scrapes the admin /metrics endpoint twice, -interval apart, and
// prints per-second rates from the counter deltas alongside wire-path
// stage and shard-tick percentiles computed from the histogram buckets
// over the same window. The stage histograms hold the messages the
// gateway timed (1 in its -sample period, plus client-traced ones), so
// the count beside each stage is messages timed; messages/s is exact. With -watch it keeps scraping and reprints the
// dashboard every interval until interrupted.
//
// Usage examples:
//
//	bwstat -addr 127.0.0.1:8080
//	bwstat -addr 127.0.0.1:8080 -interval 5s
//	bwstat -addr 127.0.0.1:8080 -watch
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwstat:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwstat", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "gateway admin address serving /metrics")
		interval = fs.Duration("interval", 2*time.Second, "delta window between the two scrapes")
		watch    = fs.Bool("watch", false, "keep scraping and reprint the dashboard every interval")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval must be positive (got %v)", *interval)
	}
	url := "http://" + *addr + "/metrics"
	prev, err := scrapeURL(url)
	if err != nil {
		return err
	}
	for {
		time.Sleep(*interval)
		cur, err := scrapeURL(url)
		if err != nil {
			return err
		}
		dashboard(out, *addr, cur.at.Sub(prev.at), prev, cur)
		if !*watch {
			return nil
		}
		prev = cur
	}
}

// scrapeURL fetches and parses one Prometheus text exposition.
func scrapeURL(url string) (*scrape, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(body), time.Now()), nil
}

// scrape is one parsed exposition: scalar series keyed name{labels},
// histogram series keyed the same (without the le label) as cumulative
// buckets plus sum and count.
type scrape struct {
	at      time.Time
	scalars map[string]int64
	hists   map[string]*hist
}

// hist is one histogram series as exposed: buckets cumulative in le
// order, le == math.MaxInt64 for the +Inf bucket.
type hist struct {
	buckets []bucket
	sum     int64
	count   int64
}

type bucket struct {
	le  int64
	cum int64
}

// parseProm parses the subset of the Prometheus text format the obs
// registry emits: integer samples, histogram buckets with the le label
// rendered last, _sum/_count suffix lines following their buckets.
// Unparseable lines are skipped — a dashboard should degrade, not die.
func parseProm(text string, at time.Time) *scrape {
	s := &scrape{at: at, scalars: map[string]int64{}, hists: map[string]*hist{}}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		key, vals := line[:sp], line[sp+1:]
		val, err := strconv.ParseInt(vals, 10, 64)
		if err != nil {
			continue
		}
		name, labels := splitNameLabels(key)
		if le, rest, ok := stripLE(labels); ok && strings.HasSuffix(name, "_bucket") {
			base := strings.TrimSuffix(name, "_bucket") + rest
			h := s.hists[base]
			if h == nil {
				h = &hist{}
				s.hists[base] = h
			}
			h.buckets = append(h.buckets, bucket{le: le, cum: val})
			continue
		}
		if base, ok := strings.CutSuffix(name, "_sum"); ok {
			if h := s.hists[base+labels]; h != nil {
				h.sum = val
				continue
			}
		}
		if base, ok := strings.CutSuffix(name, "_count"); ok {
			if h := s.hists[base+labels]; h != nil {
				h.count = val
				continue
			}
		}
		s.scalars[key] = val
	}
	return s
}

// splitNameLabels splits `name{labels}` into name and the rendered
// label block (empty when the series has no labels).
func splitNameLabels(key string) (string, string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// stripLE extracts the le label the registry splices last into a bucket
// line's label block, returning its value and the block without it.
func stripLE(labels string) (int64, string, bool) {
	const tag = `le="`
	i := strings.LastIndex(labels, tag)
	if i < 0 {
		return 0, labels, false
	}
	v := labels[i+len(tag):]
	j := strings.IndexByte(v, '"')
	if j < 0 {
		return 0, labels, false
	}
	le := int64(math.MaxInt64)
	if v[:j] != "+Inf" {
		n, err := strconv.ParseInt(v[:j], 10, 64)
		if err != nil {
			return 0, labels, false
		}
		le = n
	}
	rest := strings.TrimSuffix(labels[:i], ",")
	rest = strings.TrimSuffix(rest, "{")
	if rest != "" {
		rest += "}"
	}
	return le, rest, true
}

// delta subtracts prev's cumulative buckets from cur's, aligning by le
// (buckets prev had not seen yet count from zero), yielding the
// histogram of observations inside the scrape window.
func delta(prev, cur *hist) *hist {
	if cur == nil {
		return nil
	}
	if prev == nil {
		return cur
	}
	pc := make(map[int64]int64, len(prev.buckets))
	for _, b := range prev.buckets {
		pc[b.le] = b.cum
	}
	d := &hist{sum: cur.sum - prev.sum, count: cur.count - prev.count}
	for _, b := range cur.buckets {
		d.buckets = append(d.buckets, bucket{le: b.le, cum: b.cum - pc[b.le]})
	}
	return d
}

// quantile reads q from the cumulative buckets by linear interpolation
// inside the bucket where the rank falls; the +Inf bucket reports its
// lower bound. An empty histogram reports 0.
func (h *hist) quantile(q float64) int64 {
	if h == nil || h.count <= 0 || len(h.buckets) == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var lower int64
	for _, b := range h.buckets {
		if float64(b.cum) >= rank {
			if b.le == math.MaxInt64 {
				return lower
			}
			return lower + int64(float64(b.le-lower)*boundedFrac(rank, b.cum))
		}
		lower = b.le
	}
	return lower
}

// boundedFrac clamps rank/cum into [0,1] — cumulative counts from two
// racing stripe scrapes can be momentarily inconsistent.
func boundedFrac(rank float64, cum int64) float64 {
	if cum <= 0 {
		return 1
	}
	f := rank / float64(cum)
	if f > 1 {
		return 1
	}
	if f < 0 {
		return 0
	}
	return f
}

// dashboard renders the one-screen view: rates from counter deltas over
// the window, gauges from the second scrape, and window percentiles
// from the bucket deltas.
func dashboard(w io.Writer, addr string, window time.Duration, prev, cur *scrape) {
	if window <= 0 {
		window = time.Nanosecond
	}
	rate := func(key string) float64 {
		return float64(cur.scalars[key]-prev.scalars[key]) * float64(time.Second) / float64(window)
	}
	fmt.Fprintf(w, "bwstat %s  window %v\n", addr, window.Round(time.Millisecond))

	var msgs []string
	var total float64
	for _, typ := range []string{"open", "data", "stats", "close", "trace"} {
		r := rate(`dynbw_gateway_messages_total{type="` + typ + `"}`)
		total += r
		if r > 0 {
			msgs = append(msgs, fmt.Sprintf("%s %.0f", typ, r))
		}
	}
	fmt.Fprintf(w, "messages/s  %.0f  %s\n", total, strings.Join(msgs, "  "))
	fmt.Fprintf(w, "bits/s      arrived %.0f  served %.0f  alloc changes/s %.0f\n",
		rate("dynbw_gateway_arrived_bits_total"),
		rate("dynbw_gateway_served_bits_total"),
		scanRate(prev, cur, window, "dynbw_gateway_allocation_changes_total"))
	fmt.Fprintf(w, "sessions    %d open  %d with work in the last round  %d conns\n",
		cur.scalars["dynbw_gateway_active_sessions"], cur.scalars["dynbw_gateway_active_slots"],
		cur.scalars["dynbw_gateway_active_conns"])
	fmt.Fprintf(w, "ticks/s     %.0f  %s  overruns +%d  imbalance %d permille\n",
		rate("dynbw_gateway_ticks_total"),
		inlineShare(prev, cur),
		cur.scalars["dynbw_gateway_tick_overruns_total"]-prev.scalars["dynbw_gateway_tick_overruns_total"],
		cur.scalars["dynbw_gateway_tick_imbalance_permille"])
	fmt.Fprintf(w, "anomalies   openfails +%d  policed bits +%d  events dropped +%d  spans %d (+%d dropped)\n",
		cur.scalars["dynbw_gateway_open_fails_total"]-prev.scalars["dynbw_gateway_open_fails_total"],
		cur.scalars["dynbw_gateway_policed_bits_total"]-prev.scalars["dynbw_gateway_policed_bits_total"],
		cur.scalars["dynbw_events_dropped_total"]-prev.scalars["dynbw_events_dropped_total"],
		cur.scalars["dynbw_spans_total"],
		cur.scalars["dynbw_spans_dropped_total"]-prev.scalars["dynbw_spans_dropped_total"])

	fmt.Fprintf(w, "stage p50/p99 over window (timed messages: 1 in the gateway's -sample period, plus client-traced)\n")
	for _, stage := range []string{"read", "dispatch", "apply", "write"} {
		key := `dynbw_gateway_stage_ns{stage="` + stage + `"}`
		d := delta(prev.hists[key], cur.hists[key])
		if d == nil || d.count <= 0 {
			continue
		}
		fmt.Fprintf(w, "  %-10s %v / %v  (%d timed)\n",
			stage, time.Duration(d.quantile(0.50)), time.Duration(d.quantile(0.99)), d.count)
	}
	if d := delta(prev.hists["dynbw_gateway_exchange_latency_ns"], cur.hists["dynbw_gateway_exchange_latency_ns"]); d != nil && d.count > 0 {
		fmt.Fprintf(w, "  %-10s %v / %v  (%d timed)\n",
			"exchange", time.Duration(d.quantile(0.50)), time.Duration(d.quantile(0.99)), d.count)
	}

	var shardKeys []string
	for key := range cur.hists {
		if strings.HasPrefix(key, `dynbw_gateway_shard_tick_ns{shard="`) {
			shardKeys = append(shardKeys, key)
		}
	}
	sort.Strings(shardKeys)
	if len(shardKeys) > 0 {
		fmt.Fprintf(w, "shard tick p99 over window (timed rounds: 1 in 13, tick %% 13 == 0)\n")
		for _, key := range shardKeys {
			d := delta(prev.hists[key], cur.hists[key])
			if d == nil || d.count <= 0 {
				continue
			}
			shard := strings.TrimSuffix(strings.TrimPrefix(key, `dynbw_gateway_shard_tick_ns{shard="`), `"}`)
			fmt.Fprintf(w, "  shard %-3s  %v  (%d timed)\n", shard, time.Duration(d.quantile(0.99)), d.count)
		}
	}
	if g, ok := cur.scalars["dynbw_go_goroutines"]; ok {
		fmt.Fprintf(w, "go          %d goroutines  heap %s  gc pause p99 %v\n",
			g, byteSize(cur.scalars["dynbw_go_heap_bytes"]),
			time.Duration(cur.hists["dynbw_go_gc_pause_ns"].quantile(0.99)))
	}
}

// inlineShare renders the share of the window's allocation rounds that
// the tick loop ran itself rather than fan out to the tick workers: the
// rounds too small to pay for a wake-up, and every round of a one-shard
// gateway.
func inlineShare(prev, cur *scrape) string {
	const inline, fanout = `dynbw_gateway_tick_rounds_total{path="inline"}`, `dynbw_gateway_tick_rounds_total{path="fanout"}`
	in := cur.scalars[inline] - prev.scalars[inline]
	all := in + cur.scalars[fanout] - prev.scalars[fanout]
	if all <= 0 {
		return "inline -"
	}
	return fmt.Sprintf("inline %d%%", (100*in+all/2)/all)
}

// scanRate sums the window rate across every series of a family — the
// allocation-changes counter carries a policy label bwstat should not
// have to know.
func scanRate(prev, cur *scrape, window time.Duration, family string) float64 {
	var d int64
	for key, v := range cur.scalars {
		name, _ := splitNameLabels(key)
		if name == family {
			d += v - prev.scalars[key]
		}
	}
	return float64(d) * float64(time.Second) / float64(window)
}

// byteSize renders a byte count with a binary unit.
func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
