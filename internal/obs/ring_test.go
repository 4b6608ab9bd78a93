package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestRingBuffer drives ring[T] through the shapes its three owners rely
// on: below capacity, exactly full, wrapped twice, and capacity 1 (the
// recorder's "previous snapshot" read).
func TestRingBuffer(t *testing.T) {
	seq := func(lo, hi int) []int { // lo..hi-1
		var s []int
		for i := lo; i < hi; i++ {
			s = append(s, i)
		}
		return s
	}
	cases := []struct {
		name           string
		capacity, push int
		want           []int // retained, oldest first
		dropped        uint64
	}{
		{"empty", 4, 0, nil, 0},
		{"below capacity", 4, 3, seq(0, 3), 0},
		{"exactly full", 4, 4, seq(0, 4), 0},
		{"one past full", 4, 5, seq(1, 5), 1},
		{"two full wraps", 4, 12, seq(8, 12), 8},
		{"two wraps and a bit", 4, 14, seq(10, 14), 10},
		{"capacity 1", 1, 1, seq(0, 1), 0},
		{"capacity 1 wrapped", 1, 7, seq(6, 7), 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRing[int](tc.capacity)
			for i := 0; i < tc.push; i++ {
				if i > 0 {
					if got := r.last(); got != i-1 {
						t.Fatalf("last() before push %d = %d, want %d", i, got, i-1)
					}
				}
				r.push(i)
			}
			if got := r.appendTo(nil); !slices.Equal(got, tc.want) {
				t.Errorf("retained %v, want %v", got, tc.want)
			}
			if r.total != uint64(tc.push) || r.dropped != tc.dropped {
				t.Errorf("total %d dropped %d, want %d and %d", r.total, r.dropped, tc.push, tc.dropped)
			}
			if tc.push == 0 && r.last() != 0 {
				t.Errorf("last() of an empty ring = %d, want the zero value", r.last())
			}
			// appendTo appends: what dst held stays in front.
			if got := r.appendTo([]int{-1}); len(got) != len(tc.want)+1 || got[0] != -1 {
				t.Errorf("appendTo([-1]) = %v", got)
			}

			if cap(r.buf) != tc.capacity {
				t.Errorf("capacity grew to %d, want %d", cap(r.buf), tc.capacity)
			}
		})
	}
}

// TestRingWraparoundAtEveryStripeCount: the event ring's accounting does
// not depend on how many stripes it is cut into.
func TestRingWraparoundAtEveryStripeCount(t *testing.T) {
	const capacity, events = 24, 500
	for _, stripes := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			r := NewShardedRing(capacity, stripes)
			for i := 0; i < events; i++ {
				if i%2 == 0 {
					r.Event(Event{Type: EventOverflow, Session: i}) // routed by session
				} else {
					r.Stripe(i / 7).Event(Event{Type: EventOverflow, Session: i})
				}
			}
			snap := r.Snapshot()
			if got := r.Total(); got != events {
				t.Errorf("Total = %d, want %d", got, events)
			}
			if len(snap) == 0 || len(snap) > capacity {
				t.Errorf("retained %d events, want 1..%d", len(snap), capacity)
			}
			if got, want := r.Dropped(), r.Total()-uint64(len(snap)); got != want {
				t.Errorf("Dropped = %d, want Total - retained = %d", got, want)
			}
			for i, e := range snap {
				if e.Seq != uint64(e.Session) {
					t.Errorf("snap[%d]: Seq %d on the event emitted %d-th", i, e.Seq, e.Session)
				}
				if i > 0 && e.Seq <= snap[i-1].Seq {
					t.Errorf("snap[%d].Seq = %d after %d: not strictly increasing", i, e.Seq, snap[i-1].Seq)
				}
			}
			if stripes == 1 && snap[0].Seq != events-capacity {
				t.Errorf("one stripe retains the last %d events; oldest Seq = %d", capacity, snap[0].Seq)
			}
		})
	}
}

// TestRingRecordSizes pins the records the two rings store, 80 bytes an
// event (an Event is 104) and 104 a span (a Span is 128), and that each
// default-sized ring holds its full capacity from construction on, so a
// heap read after the rings are built is their steady-state heap.
func TestRingRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(eventRec{}); got != 80 {
		t.Errorf("the event ring's record is %d B, want 80", got)
	}
	if got := unsafe.Sizeof(spanRec{}); got != 104 {
		t.Errorf("the span ring's record is %d B, want 104", got)
	}
	r := NewShardedRing(DefaultRingSize, 8)
	held := 0
	for i := range r.stripes {
		held += cap(r.stripes[i].q.buf)
	}
	if held != DefaultRingSize {
		t.Errorf("8-stripe event ring holds %d events, want %d", held, DefaultRingSize)
	}
	spans := NewSpanRing(DefaultSpanRingSize, []string{"read", "dispatch", "apply", "write"})
	if got := cap(spans.q.buf); got != DefaultSpanRingSize {
		t.Errorf("span ring holds %d spans, want %d", got, DefaultSpanRingSize)
	}
}

// TestRingRecordRoundTrip pushes entries at the edges of every packed
// field through both rings: Snapshot must give each back field by field
// (its Time as the same instant), and for an entry stamped in the local
// zone, as the ring stamps one, the dump line must be the bytes
// json.Marshal makes of the entry pushed.
func TestRingRecordRoundTrip(t *testing.T) {
	utc := time.Date(2026, 8, 6, 12, 0, 0, 123456789, time.UTC)
	events := []struct {
		name string
		e    Event
	}{
		{"untagged", Event{Time: time.Now(), Type: EventStageReset, Session: -1, Rule: "stage-reset"}},
		{"wide session", Event{Time: time.Now(), Type: EventSessionOpen, Session: 0xFFFF_FFFF}},
		{"max ticks and rates", Event{Time: time.Now(), Type: EventRenegotiateUp, Session: 1,
			Tick: math.MaxInt64, OldRate: math.MaxInt64, NewRate: math.MaxInt64, Rule: "phase-raise"}},
		{"no link", Event{Time: time.Now(), Type: EventRouteBlock, Session: 2, Link: -1, FromLink: -1, Rule: "dar"}},
		{"reroute", Event{Time: time.Now(), Type: EventRouteReroute, Session: 3, Link: 7, FromLink: 5, Rule: "p2c"}},
		{"explicit UTC", Event{Time: utc, Type: EventOverflow, Session: 4}},
	}
	r := NewShardedRing(16, 3)
	for _, row := range events {
		r.Event(row.e)
	}
	var dump bytes.Buffer
	if err := r.WriteJSONL(&dump); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(dump.String()), "\n")[1:]
	snap := r.Snapshot()
	if len(snap) != len(events) || len(lines) != len(events) {
		t.Fatalf("retained %d events, dumped %d, want %d", len(snap), len(lines), len(events))
	}
	for i, row := range events {
		want, got := row.e, snap[i]
		want.Seq = uint64(i)
		if !got.Time.Equal(want.Time) {
			t.Errorf("%s: Time %v, want %v", row.name, got.Time, want.Time)
		}
		got.Time = want.Time
		if got != want {
			t.Errorf("%s: Snapshot gives\n%+v, want\n%+v", row.name, got, want)
		}
		if want.Time.Location() == time.Local {
			if b, _ := json.Marshal(want); lines[i] != string(b) {
				t.Errorf("%s: dump line\n%s, want\n%s", row.name, lines[i], b)
			}
		}
	}

	names := []string{"read", "dispatch", "apply", "write"}
	spans := []struct {
		name string
		s    Span
	}{
		{"untagged", Span{Time: time.Now(), Trace: 1, Kind: "open", Session: -1}},
		{"wide session", Span{Time: time.Now(), Trace: math.MaxUint64, Kind: "data", Shard: 7,
			Session: 0xFFFF_FFFF, Stages: [MaxSpanStages]int64{1, 2, 3, 4}}},
		{"max total", Span{Time: time.Now(), Trace: 3, Kind: "stats", Session: 0,
			TotalNs: math.MaxInt64, Stages: [MaxSpanStages]int64{math.MaxInt64, 0, 0, math.MaxInt64}}},
		{"client error", Span{Time: time.Now(), Trace: 1 << 63, Kind: "close", Session: 9, Client: true,
			Err: "gateway: unknown session"}},
		{"explicit UTC", Span{Time: utc, Trace: 5, Kind: "data", Session: 2}},
	}
	sr := NewSpanRing(8, names)
	for _, row := range spans {
		sr.Push(row.s)
	}
	dump.Reset()
	if err := sr.WriteJSONL(&dump); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(dump.String()), "\n")[1:]
	got := sr.Snapshot()
	if len(got) != len(spans) || len(lines) != len(spans) {
		t.Fatalf("retained %d spans, dumped %d, want %d", len(got), len(lines), len(spans))
	}
	for i, row := range spans {
		want, got := row.s, got[i]
		if !got.Time.Equal(want.Time) {
			t.Errorf("%s: Time %v, want %v", row.name, got.Time, want.Time)
		}
		got.Time = want.Time
		if got != want {
			t.Errorf("%s: Snapshot gives\n%+v, want\n%+v", row.name, got, want)
		}
		line := struct {
			Span
			StageNs map[string]int64 `json:"stage_ns"`
		}{want, map[string]int64{}}
		for j, name := range names {
			line.StageNs[name] = want.Stages[j]
		}
		if b, _ := json.Marshal(line); want.Time.Location() == time.Local && lines[i] != string(b) {
			t.Errorf("%s: dump line\n%s, want\n%s", row.name, lines[i], b)
		}
	}
}

// TestRingPushZeroAlloc: recording an event, through the ring or a
// stripe handle, and recording a span allocate nothing.
func TestRingPushZeroAlloc(t *testing.T) {
	r := NewShardedRing(64, 4)
	h := r.Stripe(2)
	spans := NewSpanRing(64, []string{"read", "write"})
	e := Event{Type: EventRenegotiateUp, Session: 3, OldRate: 2, NewRate: 4, Rule: "phase-raise"}
	s := Span{Trace: 1, Kind: "data", Session: 3, TotalNs: 10}
	if avg := testing.AllocsPerRun(200, func() { r.Event(e); h.Event(e); spans.Push(s) }); avg != 0 {
		t.Errorf("%.1f allocations a push, want 0", avg)
	}
}
