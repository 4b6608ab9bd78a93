package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRegistrySnapshotFlattensAllKinds(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dynbw_t_c_total", "h").Add(7)
	reg.Gauge("dynbw_t_g", "h", L("x", "1")).Set(-3)
	reg.CounterFunc("dynbw_t_cf_total", "h", func() int64 { return 42 })
	reg.GaugeFunc("dynbw_t_gf", "h", func() int64 { return 5 })
	h := reg.Histogram("dynbw_t_ns", "h")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	snap := reg.Snapshot()
	if snap["dynbw_t_c_total"] != 7 {
		t.Errorf("counter = %d", snap["dynbw_t_c_total"])
	}
	if snap[`dynbw_t_g{x="1"}`] != -3 {
		t.Errorf("labeled gauge = %d (keys %v)", snap[`dynbw_t_g{x="1"}`], snap)
	}
	if snap["dynbw_t_cf_total"] != 42 || snap["dynbw_t_gf"] != 5 {
		t.Errorf("func-backed series: %v", snap)
	}
	if snap["dynbw_t_ns:count"] != 100 || snap["dynbw_t_ns:sum"] != 5050 {
		t.Errorf("histogram count/sum: %v", snap)
	}
	if p50 := snap["dynbw_t_ns:p50"]; p50 < 50 || p50 > 56 {
		t.Errorf("p50 = %d, want ~50", p50)
	}
	if p99 := snap["dynbw_t_ns:p99"]; p99 < 99 || p99 > 104 {
		t.Errorf("p99 = %d, want ~99", p99)
	}
	var nilReg *Registry
	if nilReg.Snapshot() != nil {
		t.Error("nil Registry Snapshot not nil")
	}
}

func TestRecorderRingAndGrowthTrigger(t *testing.T) {
	reg := NewRegistry()
	fails := reg.Counter("dynbw_t_fails_total", "h")
	rec := NewRecorder(RecorderConfig{
		Registry: reg,
		Capacity: 4,
		Triggers: []Trigger{GrowthTrigger("openfail-spike", "dynbw_t_fails_total", 1)},
	})
	for i := 0; i < 3; i++ {
		rec.Record()
	}
	if frozen, _ := rec.Frozen(); frozen != nil {
		t.Fatal("trigger fired with a flat counter")
	}
	fails.Add(2)
	rec.Record()
	frozen, reason := rec.Frozen()
	if len(frozen) != 4 {
		t.Fatalf("frozen window = %d snapshots, want the full ring of 4", len(frozen))
	}
	if !strings.Contains(reason, "openfail-spike") {
		t.Errorf("reason = %q", reason)
	}
	// The frozen window survives further churn past ring capacity.
	for i := 0; i < 10; i++ {
		rec.Record()
	}
	after, _ := rec.Frozen()
	if len(after) != 4 || after[3].Values["dynbw_t_fails_total"] != 2 {
		t.Errorf("frozen window churned: %+v", after)
	}
	if rec.Total() != 14 {
		t.Errorf("Total = %d, want 14", rec.Total())
	}
}

func TestRecorderRearmSuppressesRetrigger(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dynbw_t_grow_total", "h")
	rec := NewRecorder(RecorderConfig{
		Registry: reg,
		Capacity: 3,
		Triggers: []Trigger{GrowthTrigger("growth", "dynbw_t_grow_total", 1)},
	})
	rec.Record()
	c.Inc()
	rec.Record() // fires; freezes a window ending at seq 1
	first, _ := rec.Frozen()
	// Keep growing: within the re-arm window the frozen dump must not move.
	c.Inc()
	rec.Record()
	c.Inc()
	rec.Record()
	second, _ := rec.Frozen()
	if first[len(first)-1].Seq != second[len(second)-1].Seq {
		t.Fatal("frozen window replaced during the re-arm window")
	}
	// After a full ring of further snapshots the trigger re-arms.
	rec.Record()
	c.Inc()
	rec.Record()
	third, _ := rec.Frozen()
	if third[len(third)-1].Seq == first[len(first)-1].Seq {
		t.Fatal("trigger never re-armed")
	}
}

func TestRecorderWriteJSONL(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dynbw_t_x_total", "h")
	rec := NewRecorder(RecorderConfig{
		Registry: reg,
		Capacity: 2,
		Triggers: []Trigger{GrowthTrigger("x", "dynbw_t_x_total", 1)},
	})
	rec.Record()
	c.Inc()
	rec.Record() // fires: 2 frozen + 2 live
	var b strings.Builder
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 { // meta + 2 frozen + 2 live
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), b.String())
	}
	var meta struct {
		RecorderMeta bool   `json:"recorder_meta"`
		Total        uint64 `json:"total"`
		Retained     int    `json:"retained"`
		Frozen       int    `json:"frozen"`
		Reason       string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatal(err)
	}
	if !meta.RecorderMeta || meta.Total != 2 || meta.Retained != 2 || meta.Frozen != 2 || meta.Reason == "" {
		t.Errorf("meta = %+v", meta)
	}
	var fz struct {
		Frozen bool             `json:"frozen"`
		Values map[string]int64 `json:"values"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &fz); err != nil {
		t.Fatal(err)
	}
	if !fz.Frozen || fz.Values == nil {
		t.Errorf("frozen line = %+v", fz)
	}
}

func TestRecorderStartCloseAndManualFreeze(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dynbw_t_y_total", "h").Inc()
	rec := NewRecorder(RecorderConfig{Registry: reg, Capacity: 8, Interval: time.Millisecond})
	rec.Start()
	deadline := time.Now().Add(2 * time.Second)
	for rec.Total() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rec.Freeze("manual")
	rec.Close()
	rec.Close()          // idempotent
	if rec.Total() < 3 { // >= 2 periodic + 1 final on Close
		t.Fatalf("Total = %d, want >= 3", rec.Total())
	}
	frozen, reason := rec.Frozen()
	if len(frozen) == 0 || reason != "manual" {
		t.Errorf("frozen = %d snapshots, reason %q", len(frozen), reason)
	}
}

func TestGrowthTriggerThreshold(t *testing.T) {
	tr := GrowthTrigger("t", "k", 3)
	if _, fire := tr.Fire(map[string]int64{"k": 10}, map[string]int64{"k": 12}); fire {
		t.Error("fired below threshold")
	}
	if reason, fire := tr.Fire(map[string]int64{"k": 10}, map[string]int64{"k": 13}); !fire || reason == "" {
		t.Error("did not fire at threshold")
	}
	// Missing keys read as zero on both sides.
	if _, fire := tr.Fire(map[string]int64{}, map[string]int64{}); fire {
		t.Error("fired on absent key")
	}
}

// TestRecorderCloseWithoutStart: a recorder driven by Record alone, the
// manual cadence NewRecorder offers, closes at once and takes its final
// snapshot.
func TestRecorderCloseWithoutStart(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Registry: NewRegistry(), Capacity: 4})
	rec.Record()
	closed := make(chan struct{})
	go func() {
		rec.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked: it waits for a Start loop that never ran")
	}
	if got := rec.Total(); got != 2 {
		t.Errorf("%d snapshots after Record and Close, want 2", got)
	}
}
