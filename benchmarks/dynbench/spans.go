package main

import (
	"encoding/json"
	"time"

	"dynbw/internal/metrics"
)

// The traced pass wraps every call into the repository's public
// functions in a span recorded here, in the benchmark's own code; spans
// inside the program are a later change. Each load goroutine owns one
// tracer, so recording takes no lock. A nil *tracer records nothing,
// which is the untraced pass.

// maxSpansKept bounds the spans one tracer keeps verbatim for the span
// file; the per-name totals below still cover every span.
const maxSpansKept = 1 << 14

// span is one timed call. Spans of one exchange share ID; Parent is the
// index of the enclosing span within the same tracer, -1 at the top.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanTotal is every span of one name, reduced.
type spanTotal struct {
	Count int64
	SumNs int64
	hist  metrics.Histogram
}

type tracer struct {
	t0      time.Time
	spans   []span
	open    []openSpan
	dropped int64
	totals  map[string]*spanTotal
}

// openSpan is a started span: kept is its index in spans, -1 when the
// span is past the cap and only counted.
type openSpan struct {
	name  string
	start time.Time
	kept  int
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, spans: make([]span, 0, maxSpansKept), totals: make(map[string]*spanTotal)}
}

// start opens a span under parent (a handle start returned, or -1) and
// returns its handle.
func (t *tracer) start(name string, id uint64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	o := openSpan{name: name, start: now, kept: -1}
	if len(t.spans) < maxSpansKept {
		p := -1
		if parent >= 0 {
			p = t.open[parent].kept
		}
		o.kept = len(t.spans)
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: p, StartNs: int64(now.Sub(t.t0))})
	} else {
		t.dropped++
	}
	t.open = append(t.open, o)
	return len(t.open) - 1
}

// end closes the span and every span opened after it (they are its
// children); handles are a stack.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Now()
	for i := len(t.open) - 1; i >= h; i-- {
		o := t.open[i]
		d := int64(now.Sub(o.start))
		if o.kept >= 0 {
			t.spans[o.kept].EndNs = int64(now.Sub(t.t0))
		}
		tot := t.totals[o.name]
		if tot == nil {
			tot = &spanTotal{}
			t.totals[o.name] = tot
		}
		tot.Count++
		tot.SumNs += d
		tot.hist.Observe(d)
	}
	t.open = t.open[:h]
}

// total merges one span name over several tracers.
func total(name string, ts ...*tracer) spanTotal {
	var out spanTotal
	for _, t := range ts {
		if t == nil {
			continue
		}
		if s := t.totals[name]; s != nil {
			out.Count += s.Count
			out.SumNs += s.SumNs
			out.hist.Merge(&s.hist)
		}
	}
	return out
}

// spanFile is what the traced pass leaves in benchmarks/out/spans.json.
type spanFile struct {
	Workload string               `json:"workload"`
	Dropped  int64                `json:"spans_not_kept"`
	Totals   map[string]spanCount `json:"totals"`
	Tracers  [][]span             `json:"tracers"`
}

type spanCount struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
}

func collect(workload string, ts ...*tracer) spanFile {
	f := spanFile{Workload: workload, Totals: make(map[string]spanCount)}
	for _, t := range ts {
		if t == nil {
			continue
		}
		f.Dropped += t.dropped
		f.Tracers = append(f.Tracers, t.spans)
		for name, s := range t.totals {
			c := f.Totals[name]
			c.Count += s.Count
			c.SumNs += s.SumNs
			f.Totals[name] = c
		}
	}
	return f
}

// writeSpans writes the collected span files as one compact JSON array.
func writeSpans(path string, files []spanFile) error {
	data, err := json.Marshal(files)
	if err != nil {
		return err
	}
	return writeFile(path, data)
}
