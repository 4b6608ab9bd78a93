// Package obs is the live observability layer: a zero-dependency
// Prometheus-text-format metrics registry (counters, gauges, and
// histograms backed by internal/metrics.Histogram), a structured
// allocation-event tracer (a fixed-size ring of typed events emitted
// through the optional Observer interface that the core policies, the
// gateway, and the load swarm all accept), a rate-limited slog wrapper
// for hot-path error diagnostics, and an admin HTTP server exposing
// /metrics, /healthz, /sessions, /events and net/http/pprof.
//
// Everything is stdlib-only and safe for concurrent use. The three
// instruments, Counter, Gauge and Histogram, are each striped by a count
// (one stripe is the plain case) and nil-receiver-safe, so instrumented
// code reads the same whether or not a registry is attached.
package obs

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"dynbw/internal/metrics"
)

// Label is one metric label pair; series within a family are keyed by
// their rendered label set.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// series is one labeled time series within a family, read at scrape
// time through value (counters, gauges) or hist (histograms). inst is
// the instrument the registry built for it, nil for a func-backed
// series: a second registration returns it.
type series struct {
	labels string // rendered {k="v",...} or ""
	inst   any
	value  func() int64
	hist   func() metrics.Histogram
}

// family is one named metric with HELP/TYPE and its series, in
// registration order.
type family struct {
	name, help, typ string
	series          []*series
	byLabels        map[string]*series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration is idempotent: asking for the same
// name + label set returns the existing instrument. The nil *Registry is
// a valid no-op: every method returns a nil (no-op) instrument or does
// nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// add registers s under name and its label set, creating the family with
// the given type on first use, and returns the instrument of the series
// registered there first — s's own on the first registration. A type
// clash on an existing name panics: it is a programming error that would
// silently corrupt the exposition otherwise.
func (r *Registry) add(name, help, typ string, labels []Label, s series) any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabels: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	s.labels = renderLabels(labels)
	if old, ok := f.byLabels[s.labels]; ok {
		return old.inst
	}
	f.byLabels[s.labels] = &s
	f.series = append(f.series, &s)
	return s.inst
}

// Counter registers (or returns) a counter series of n stripes.
func (r *Registry) Counter(name, help string, n int, labels ...Label) *Counter {
	c := NewCounter(n)
	c, _ = r.add(name, help, "counter", labels, series{inst: c, value: c.Value}).(*Counter)
	return c
}

// Gauge registers (or returns) a gauge series of n stripes.
func (r *Registry) Gauge(name, help string, n int, labels ...Label) *Gauge {
	g := NewGauge(n)
	g, _ = r.add(name, help, "gauge", labels, series{inst: g, value: g.Value}).(*Gauge)
	return g
}

// Histogram registers (or returns) a histogram series of n stripes.
func (r *Registry) Histogram(name, help string, n int, labels ...Label) *Histogram {
	h := NewHistogram(n)
	h, _ = r.add(name, help, "histogram", labels, series{inst: h, hist: h.Snapshot}).(*Histogram)
	return h
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — for counts kept elsewhere (event-ring and span totals).
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.add(name, help, "counter", labels, series{value: fn})
}

// GaugeFunc registers a gauge series whose value is read from fn at
// scrape time — for values owned elsewhere (runtime metrics, link loads,
// shard occupancy).
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.add(name, help, "gauge", labels, series{value: fn})
}

// HistogramFunc registers a histogram series whose snapshot is produced
// by fn at scrape time — for histograms kept elsewhere (runtime metrics,
// one stripe of a Histogram).
func (r *Registry) HistogramFunc(name, help string, fn func() metrics.Histogram, labels ...Label) {
	r.add(name, help, "histogram", labels, series{hist: fn})
}

// sorted copies every family, sorted by name, with its series list as it
// stands: the readers then run outside r.mu, since a func-backed one may
// take locks of its own.
func (r *Registry) sorted() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]family, 0, len(r.families))
	for _, f := range r.families {
		c := *f
		c.series = slices.Clone(f.series)
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b family) int { return strings.Compare(a.name, b.name) })
	return out
}

// WritePrometheus renders every family in the text exposition format
// (families sorted by name, series in registration order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, f := range r.sorted() {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.typ)
		for _, s := range f.series {
			if s.hist != nil {
				writeHistogram(&b, f.name, s.labels, s.hist())
			} else {
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.value())
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative buckets over
// the snapshot's non-empty native buckets, then +Inf, sum and count.
func writeHistogram(b *strings.Builder, name, labels string, snap metrics.Histogram) {
	var cum uint64
	for _, bk := range snap.Buckets() {
		cum += bk.Count
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(labels, fmt.Sprintf("%d", bk.UpperBound)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), snap.Count())
	fmt.Fprintf(b, "%s_sum%s %d\n", name, labels, snap.Sum())
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, snap.Count())
}

// withLE splices an le label into an already-rendered label set.
func withLE(labels, le string) string {
	if labels == "" {
		return fmt.Sprintf(`{le="%s"}`, le)
	}
	return fmt.Sprintf(`%s,le="%s"}`, strings.TrimSuffix(labels, "}"), le)
}

// renderLabels renders a label set as {k="v",...}; empty input renders
// as "". Labels are sorted by key for a stable series identity.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, valueEscaper.Replace(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// valueEscaper and helpEscaper escape a label value and a HELP string
// per the text exposition format.
var (
	valueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)
