package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingAppendAndSnapshot(t *testing.T) {
	r := NewRing(8)
	r.Event(Event{Type: EventSessionOpen, Session: 0})
	r.Event(Event{Type: EventRenegotiateUp, Session: 0, OldRate: 2, NewRate: 6, Rule: "phase-raise"})
	r.Event(Event{Type: EventSessionClose, Session: 0})

	if got := r.Total(); got != 3 {
		t.Fatalf("Total = %d, want 3", got)
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(snap))
	}
	for i, e := range snap {
		if e.Seq != uint64(i) {
			t.Errorf("snap[%d].Seq = %d, want %d", i, e.Seq, i)
		}
		if e.Time.IsZero() {
			t.Errorf("snap[%d].Time not stamped", i)
		}
	}
	if snap[1].Rule != "phase-raise" || snap[1].NewRate != 6 {
		t.Errorf("event payload mangled: %+v", snap[1])
	}
}

func TestRingWraparound(t *testing.T) {
	const capacity = 4
	r := NewRing(capacity)
	for i := 0; i < 11; i++ {
		r.Event(Event{Type: EventOverflow, Session: i})
	}
	if got := r.Total(); got != 11 {
		t.Fatalf("Total = %d, want 11", got)
	}
	snap := r.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("Snapshot len = %d, want %d", len(snap), capacity)
	}
	// Oldest first: the last `capacity` events, in order, with monotone Seq.
	for i, e := range snap {
		wantSeq := uint64(11 - capacity + i)
		if e.Seq != wantSeq || e.Session != int(wantSeq) {
			t.Errorf("snap[%d] = {Seq:%d Session:%d}, want Seq=Session=%d",
				i, e.Seq, e.Session, wantSeq)
		}
	}
}

func TestRingPreservesExplicitTime(t *testing.T) {
	r := NewRing(2)
	stamp := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	r.Event(Event{Type: EventStageReset, Session: -1, Time: stamp})
	if got := r.Snapshot()[0].Time; !got.Equal(stamp) {
		t.Errorf("explicit timestamp overwritten: %v", got)
	}
}

func TestRingWriteJSONL(t *testing.T) {
	r := NewRing(8)
	r.Event(Event{Type: EventRenegotiateDown, Session: 2, Tick: 17, OldRate: 8, NewRate: 3, Rule: "reduce"})
	r.Event(Event{Type: EventOpenFail, Session: -1})

	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3 (meta + 2 events):\n%s", len(lines), b.String())
	}
	var meta struct {
		RingMeta bool   `json:"ring_meta"`
		Total    uint64 `json:"total"`
		Retained int    `json:"retained"`
		Dropped  uint64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatalf("meta line not JSON: %v", err)
	}
	if !meta.RingMeta || meta.Total != 2 || meta.Retained != 2 || meta.Dropped != 0 {
		t.Errorf("meta line = %+v", meta)
	}
	lines = lines[1:]
	var e struct {
		Seq     uint64 `json:"seq"`
		Type    string `json:"type"`
		Session int    `json:"session"`
		Tick    int64  `json:"tick"`
		OldRate int64  `json:"old_rate"`
		NewRate int64  `json:"new_rate"`
		Rule    string `json:"rule"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if e.Type != "renegotiate_down" || e.Tick != 17 || e.OldRate != 8 || e.NewRate != 3 || e.Rule != "reduce" {
		t.Errorf("decoded event = %+v", e)
	}
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if e.Type != "open_fail" || e.Session != -1 {
		t.Errorf("decoded event = %+v", e)
	}
}

func TestEventTypeStrings(t *testing.T) {
	want := map[EventType]string{
		EventSessionOpen:     "session_open",
		EventSessionClose:    "session_close",
		EventOpenFail:        "open_fail",
		EventIdleDisconnect:  "idle_disconnect",
		EventRenegotiateUp:   "renegotiate_up",
		EventRenegotiateDown: "renegotiate_down",
		EventOverflow:        "overflow",
		EventStageReset:      "stage_reset",
		EventRoutePlace:      "route_place",
		EventRouteBlock:      "route_block",
		EventRouteReroute:    "route_reroute",
		EventRouteRelease:    "route_release",
		EventType(0):         "event_0",
		EventType(99):        "event_99",
	}
	for typ, s := range want {
		if got := typ.String(); got != s {
			t.Errorf("%d.String() = %q, want %q", typ, got, s)
		}
	}
}

func TestNilRingNoOp(t *testing.T) {
	var r *Ring
	r.Event(Event{Type: EventSessionOpen})
	if r.Total() != 0 || r.Snapshot() != nil {
		t.Error("nil ring retained state")
	}
	if err := r.WriteJSONL(&strings.Builder{}); err != nil {
		t.Errorf("nil ring WriteJSONL: %v", err)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Event(Event{Type: EventRenegotiateUp, Session: id})
				r.Snapshot()
			}
		}(i)
	}
	wg.Wait()
	if got := r.Total(); got != 800 {
		t.Errorf("Total = %d, want 800", got)
	}
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("Seq gap in snapshot: %d then %d", snap[i-1].Seq, snap[i].Seq)
		}
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
