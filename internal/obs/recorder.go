package obs

import (
	"io"
	"sync"
	"time"
)

// recorder.go is the flight recorder: a fixed-size ring of periodic
// whole-registry snapshots with anomaly triggers. In steady state it
// costs one registry walk per interval; when a trigger fires (an
// OPENFAIL spike, events_dropped growth, a tick-deadline overrun) the
// ring's current contents — the window *around* the anomaly — are
// frozen so the minutes leading up to the incident survive the ring's
// own churn. The admin /snapshots endpoint and the shutdown path dump
// both the frozen window and the live ring as JSONL.

// RegSnapshot is one whole-registry sample: every scalar series by its
// rendered name{labels} key, and for each histogram series its
// count/sum/p50/p99 under ":"-suffixed keys.
type RegSnapshot struct {
	Seq    uint64           `json:"seq"`
	Time   time.Time        `json:"time"`
	Values map[string]int64 `json:"values"`
}

// Snapshot walks every family and returns a flat key → value view of
// the registry: counters and gauges (including the func-backed
// variants) under "name{labels}", histograms under
// "name{labels}:count", ":sum", ":p50" and ":p99". It is the flight
// recorder's sampling primitive; the nil *Registry returns nil.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64)
	for _, f := range r.sorted() {
		for _, s := range f.series {
			key := f.name + s.labels
			if s.hist == nil {
				out[key] = s.value()
				continue
			}
			h := s.hist()
			out[key+":count"] = h.Count()
			out[key+":sum"] = h.Sum()
			out[key+":p50"] = h.Quantile(0.50)
			out[key+":p99"] = h.Quantile(0.99)
		}
	}
	return out
}

// Trigger freezes the recorder's current window when the value under
// Key grows between consecutive snapshots — the shape of every "this
// counter should stay flat" anomaly (OPENFAILs, dropped events, tick
// overruns, panics). A key absent from a snapshot reads as zero.
type Trigger struct {
	Name string
	Key  string
}

// RecorderConfig parameterizes a flight recorder.
type RecorderConfig struct {
	// Registry is the snapshot source (required).
	Registry *Registry
	// Interval is the snapshot cadence for Start (default 500ms).
	Interval time.Duration
	// Triggers are evaluated against each consecutive snapshot pair;
	// the first that fires freezes the current window.
	Triggers []Trigger
}

// recorderCap is the snapshot ring's capacity.
const recorderCap = 240

// Recorder is the flight recorder. Record (or the Start loop) appends
// one registry snapshot per call; a firing trigger freezes a copy of
// the ring and re-arms only after a full ring of further snapshots, so
// one incident cannot churn the frozen window away. The nil *Recorder
// is a valid no-op.
type Recorder struct {
	mu       sync.Mutex
	reg      *Registry
	interval time.Duration
	triggers []Trigger

	q ring[RegSnapshot] // guarded by mu

	frozen       []RegSnapshot // guarded by mu; window captured at the last trigger
	frozenReason string        // guarded by mu
	frozenAt     time.Time     // guarded by mu
	rearmAt      uint64        // guarded by mu; suppress triggers until q.total reaches this

	stop     chan struct{}
	loop     sync.WaitGroup // the Start loop, while it runs
	stopOnce sync.Once
}

// NewRecorder builds a recorder; call Start for the periodic loop or
// Record directly for manual cadence (tests, one-shot tools).
func NewRecorder(cfg RecorderConfig) *Recorder { return newRecorder(cfg, recorderCap) }

// newRecorder is NewRecorder with a ring of capacity snapshots; tests
// shrink it.
func newRecorder(cfg RecorderConfig, capacity int) *Recorder {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	return &Recorder{
		reg:      cfg.Registry,
		interval: cfg.Interval,
		triggers: cfg.Triggers,
		q:        newRing[RegSnapshot](capacity),
		stop:     make(chan struct{}),
	}
}

// Start snapshots the registry every interval until Close.
func (rec *Recorder) Start() {
	if rec == nil {
		return
	}
	rec.loop.Add(1)
	go func() {
		defer rec.loop.Done()
		t := time.NewTicker(rec.interval)
		defer t.Stop()
		for {
			select {
			case <-rec.stop:
				return
			case <-t.C:
				rec.Record()
			}
		}
	}()
}

// Close stops the Start loop (if any) and takes one final snapshot so a
// shutdown dump always carries the end state. It is idempotent.
func (rec *Recorder) Close() {
	if rec == nil {
		return
	}
	rec.stopOnce.Do(func() {
		close(rec.stop)
		rec.loop.Wait() // returns at once when Start never ran
		rec.Record()
	})
}

// Record takes one snapshot, appends it to the ring, and evaluates the
// triggers against the previous snapshot.
func (rec *Recorder) Record() {
	if rec == nil {
		return
	}
	snap := RegSnapshot{Time: time.Now(), Values: rec.reg.Snapshot()}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	snap.Seq = rec.q.total
	// Grab the previous snapshot's values before the push can overwrite
	// its slot (cap-1 rings).
	prev := rec.q.last().Values
	rec.q.push(snap)
	if prev == nil || rec.q.total <= rec.rearmAt {
		return
	}
	for _, tr := range rec.triggers {
		if snap.Values[tr.Key] > prev[tr.Key] {
			rec.freezeLocked(tr.Name+": "+tr.Key+" grew", snap.Time)
			return
		}
	}
}

// freezeLocked copies the ring (oldest first) into the frozen window
// and re-arms triggers one full ring later. Callers must hold rec.mu.
func (rec *Recorder) freezeLocked(reason string, at time.Time) {
	rec.frozen = rec.q.appendTo(rec.frozen[:0])
	rec.frozenReason = reason
	rec.frozenAt = at
	rec.rearmAt = rec.q.total + uint64(cap(rec.q.buf))
}

// Frozen returns the frozen window (oldest first) and its reason, or
// nil when no trigger has fired.
func (rec *Recorder) Frozen() ([]RegSnapshot, string) {
	if rec == nil {
		return nil, ""
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]RegSnapshot(nil), rec.frozen...), rec.frozenReason
}

// Total returns how many snapshots were ever recorded.
func (rec *Recorder) Total() uint64 {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.q.total
}

// recorderMeta is the header line of a JSONL snapshot dump.
type recorderMeta struct {
	RecorderMeta bool      `json:"recorder_meta"`
	Total        uint64    `json:"total"`
	Retained     int       `json:"retained"`
	IntervalNs   int64     `json:"interval_ns"`
	Frozen       int       `json:"frozen"`
	Reason       string    `json:"reason,omitempty"`
	FrozenAt     time.Time `json:"frozen_at,omitempty"`
}

// snapLine is one snapshot line of a dump, marked when it belongs to
// the frozen window.
type snapLine struct {
	RegSnapshot
	Frozen bool `json:"frozen,omitempty"`
}

// WriteJSONL dumps a recorder_meta header line, the frozen window (if a
// trigger fired, each line marked "frozen":true), then the live ring,
// all oldest first, one JSON object per line.
func (rec *Recorder) WriteJSONL(w io.Writer) error {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	lines := make([]snapLine, 0, len(rec.frozen)+len(rec.q.buf))
	for _, s := range rec.frozen {
		lines = append(lines, snapLine{s, true})
	}
	for _, s := range rec.q.appendTo(nil) {
		lines = append(lines, snapLine{RegSnapshot: s})
	}
	meta := recorderMeta{
		RecorderMeta: true, Total: rec.q.total, Retained: len(rec.q.buf),
		IntervalNs: int64(rec.interval), Frozen: len(rec.frozen),
		Reason: rec.frozenReason, FrozenAt: rec.frozenAt,
	}
	rec.mu.Unlock()
	return writeJSONL(w, meta, lines)
}
