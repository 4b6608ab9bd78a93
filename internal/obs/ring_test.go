package obs

import (
	"fmt"
	"slices"
	"testing"
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
