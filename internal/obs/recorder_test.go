package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestRegistrySnapshotFlattensAllKinds: both readers of a series — the
// flight recorder's Snapshot and the /metrics exposition — report the
// same merged value for every kind of series at one stripe and at four,
// and an update on a stripe past the count lands on it modulo the count.
// Stripe i takes the value 1<<i, and stripe n takes 1<<n, which lands on
// stripe 0: the merged value is 2^(n+1)-1, and stripe 0 alone holds
// 1+2^n.
func TestRegistrySnapshotFlattensAllKinds(t *testing.T) {
	// Each kind registers one series of n stripes labeled x="1" and
	// returns its update and its read of one stripe alone.
	kinds := []struct {
		name     string
		hist     bool
		register func(reg *Registry, n int) (update func(stripe int, v int64), stripe func(i int) int64)
	}{
		{"counter", false, func(reg *Registry, n int) (func(int, int64), func(int) int64) {
			c := reg.Counter("dynbw_t", "h", n, L("x", "1"))
			return c.Add, func(i int) int64 { return c.s[i].v.Load() }
		}},
		{"gauge", false, func(reg *Registry, n int) (func(int, int64), func(int) int64) {
			g := reg.Gauge("dynbw_t", "h", n, L("x", "1"))
			return g.Add, func(i int) int64 { return g.s[i].v.Load() }
		}},
		{"histogram", true, func(reg *Registry, n int) (func(int, int64), func(int) int64) {
			h := reg.Histogram("dynbw_t", "h", n, L("x", "1"))
			return h.Observe, func(i int) int64 { s := h.StripeSnapshot(i); return s.Sum() }
		}},
		{"counter func", false, func(reg *Registry, n int) (func(int, int64), func(int) int64) {
			c := NewCounter(n)
			reg.CounterFunc("dynbw_t", "h", c.Value, L("x", "1"))
			return c.Add, func(i int) int64 { return c.s[i].v.Load() }
		}},
		{"gauge func", false, func(reg *Registry, n int) (func(int, int64), func(int) int64) {
			g := NewGauge(n)
			reg.GaugeFunc("dynbw_t", "h", g.Value, L("x", "1"))
			return g.Add, func(i int) int64 { return g.s[i].v.Load() }
		}},
		{"histogram func", true, func(reg *Registry, n int) (func(int, int64), func(int) int64) {
			h := NewHistogram(n)
			reg.HistogramFunc("dynbw_t", "h", h.Snapshot, L("x", "1"))
			return h.Observe, func(i int) int64 { s := h.StripeSnapshot(i); return s.Sum() }
		}},
	}
	for _, k := range kinds {
		for _, n := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/stripes=%d", k.name, n), func(t *testing.T) {
				reg := NewRegistry()
				update, stripe := k.register(reg, n)
				for i := 0; i <= n; i++ {
					update(i, 1<<i)
				}
				if got, want := stripe(0), int64(1+1<<n); got != want {
					t.Errorf("stripe 0 holds %d, want %d: stripe %d did not land on it", got, want, n)
				}
				want := int64(1<<(n+1) - 1)
				key, exposed := `dynbw_t{x="1"}`, `dynbw_t{x="1"}`
				if k.hist {
					key, exposed = key+":sum", `dynbw_t_sum{x="1"}`
				}
				snap := reg.Snapshot()
				if snap[key] != want {
					t.Errorf("Snapshot %s = %d, want %d (all of %v)", key, snap[key], want, snap)
				}
				if line := fmt.Sprintf("%s %d\n", exposed, want); !strings.Contains(render(t, reg), line) {
					t.Errorf("exposition lacks %q:\n%s", line, render(t, reg))
				}
				if k.hist {
					if c := snap[`dynbw_t{x="1"}:count`]; c != int64(n+1) {
						t.Errorf("Snapshot count = %d, want %d", c, n+1)
					}
					if p50, p99 := snap[`dynbw_t{x="1"}:p50`], snap[`dynbw_t{x="1"}:p99`]; p50 < 1 || p50 > p99 || p99 > 1<<n+1<<n/8 {
						t.Errorf("Snapshot p50 %d, p99 %d, of samples 1..%d", p50, p99, 1<<n)
					}
				}
			})
		}
	}
	var nilReg *Registry
	if nilReg.Snapshot() != nil {
		t.Error("nil Registry Snapshot not nil")
	}
}

func TestRecorderRingAndGrowthTrigger(t *testing.T) {
	reg := NewRegistry()
	fails := reg.Counter("dynbw_t_fails_total", "h", 1)
	rec := newRecorder(RecorderConfig{
		Registry: reg,
		Triggers: []Trigger{{"openfail-spike", "dynbw_t_fails_total"}},
	}, 4)
	for i := 0; i < 3; i++ {
		rec.Record()
	}
	if frozen, _ := rec.Frozen(); frozen != nil {
		t.Fatal("trigger fired with a flat counter")
	}
	fails.Add(0, 2)
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
	c := reg.Counter("dynbw_t_grow_total", "h", 1)
	rec := newRecorder(RecorderConfig{
		Registry: reg,
		Triggers: []Trigger{{"growth", "dynbw_t_grow_total"}},
	}, 3)
	rec.Record()
	c.Inc(0)
	rec.Record() // fires; freezes a window ending at seq 1
	first, _ := rec.Frozen()
	// Keep growing: within the re-arm window the frozen dump must not move.
	c.Inc(0)
	rec.Record()
	c.Inc(0)
	rec.Record()
	second, _ := rec.Frozen()
	if first[len(first)-1].Seq != second[len(second)-1].Seq {
		t.Fatal("frozen window replaced during the re-arm window")
	}
	// After a full ring of further snapshots the trigger re-arms.
	rec.Record()
	c.Inc(0)
	rec.Record()
	third, _ := rec.Frozen()
	if third[len(third)-1].Seq == first[len(first)-1].Seq {
		t.Fatal("trigger never re-armed")
	}
}

func TestRecorderWriteJSONL(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dynbw_t_x_total", "h", 1)
	rec := newRecorder(RecorderConfig{
		Registry: reg,
		Triggers: []Trigger{{"x", "dynbw_t_x_total"}},
	}, 2)
	rec.Record()
	c.Inc(0)
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

// TestRecorderStartCloseAndManualFreeze: the Start loop records until Close,
// which is idempotent and takes a final snapshot, and a counter that
// grows while the loop runs freezes the window.
func TestRecorderStartCloseAndManualFreeze(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dynbw_t_y_total", "h", 1)
	rec := NewRecorder(RecorderConfig{Registry: reg, Interval: time.Millisecond, Triggers: []Trigger{{"y", "dynbw_t_y_total"}}})
	rec.Start()
	// The loop records one snapshot at a time, so once two more have
	// landed after the increment, some consecutive pair straddles it.
	waitTotal := func(n uint64) {
		for deadline := time.Now().Add(2 * time.Second); rec.Total() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("Total = %d after 2s, want %d", rec.Total(), n)
			}
		}
	}
	waitTotal(1)
	n := rec.Total()
	c.Inc(0)
	waitTotal(n + 2)
	rec.Close()
	rec.Close()                        // idempotent
	if got := rec.Total(); got < n+3 { // + 1 final on Close
		t.Fatalf("Total = %d, want >= %d", got, n+3)
	}
	frozen, reason := rec.Frozen()
	if len(frozen) == 0 || reason != "y: dynbw_t_y_total grew" {
		t.Errorf("frozen = %d snapshots, reason %q", len(frozen), reason)
	}
}

// TestGrowthTriggerThreshold: a trigger fires when its key grows by 1,
// not while it stays flat or falls, and an absent key reads as zero.
func TestGrowthTriggerThreshold(t *testing.T) {
	for _, tc := range []struct {
		name      string
		prev, cur int64 // -1: key absent
		fire      bool
	}{
		{"flat", 10, 10, false},
		{"fell", 10, 9, false},
		{"grew by one", 10, 11, true},
		{"absent on both sides", -1, -1, false},
		{"appeared at zero", -1, 0, false},
		{"appeared at one", -1, 1, true},
	} {
		reg := NewRegistry()
		v := tc.prev
		register := func() { reg.GaugeFunc("dynbw_t_k", "h", func() int64 { return v }) }
		rec := newRecorder(RecorderConfig{Registry: reg, Triggers: []Trigger{{"t", "dynbw_t_k"}}}, 4)
		if v >= 0 {
			register()
		}
		rec.Record()
		if v < 0 && tc.cur >= 0 {
			register()
		}
		v = tc.cur
		rec.Record()
		if frozen, _ := rec.Frozen(); (frozen != nil) != tc.fire {
			t.Errorf("%s: fired %v, want %v", tc.name, frozen != nil, tc.fire)
		}
	}
}

// TestRecorderCloseWithoutStart: a recorder driven by Record alone, the
// manual cadence NewRecorder offers, closes at once and takes its final
// snapshot.
func TestRecorderCloseWithoutStart(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Registry: NewRegistry()})
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
