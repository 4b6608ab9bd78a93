package sim

import (
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/trace"
)

// TestSlotsChangesEqualScheduleChanges pins the claim the lean slot
// rests on: the kernel's per-slot change counter is the change count of
// the full schedule recorded from the same rates.
func TestSlotsChangesEqualScheduleChanges(t *testing.T) {
	const k = 5
	sessions := make([]*trace.Trace, k)
	for i := range sessions {
		sessions[i] = runnerTrace(uint64(40+i), 200)
	}
	r := NewMultiRunner()
	res, err := r.Run(trace.MustNewMulti(sessions), &perSessionAlloc{cap: 96}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, s := range res.Sessions {
		if got, want := r.slots.Changes(i), s.Changes(); got != want {
			t.Errorf("session %d: slot counts %d changes, schedule %d", i, got, want)
		}
		total += r.slots.Changes(i)
	}
	if total == 0 || total != res.SessionChanges() {
		t.Errorf("slot changes sum to %d, SessionChanges() = %d", total, res.SessionChanges())
	}
}

func TestSlotsStepRound(t *testing.T) {
	s := NewSlots(2)
	pending := []bw.Bits{10, 0}
	alloc := multiAllocFunc(func(_ bw.Tick, arrived, queued []bw.Bits) []bw.Rate {
		if arrived[0] != 10 || queued[0] != 10 || arrived[1] != 0 {
			t.Errorf("allocator saw arrived %v queued %v", arrived, queued)
		}
		return []bw.Rate{4, 3}
	})
	r, err := s.Step(0, alloc, pending)
	if err != nil {
		t.Fatal(err)
	}
	if pending[0] != 0 {
		t.Errorf("pending not drained: %v", pending)
	}
	if r.Arrived != 10 || r.Served != 4 || r.Total != 7 || r.Changes != 2 || len(r.Rates) != 2 {
		t.Errorf("round = %+v", r)
	}
	if s.Queue(0).Bits() != 6 || s.Rate(0) != 4 || s.Rate(1) != 3 || s.Changes(0) != 1 || s.Changes(1) != 1 {
		t.Errorf("slot state: queued %d rates %d/%d changes %d/%d",
			s.Queue(0).Bits(), s.Rate(0), s.Rate(1), s.Changes(0), s.Changes(1))
	}
}

// TestSlotsStepContractViolation: a bad rate vector is an error, the
// arrivals are still enqueued, and nothing is served or recounted — not
// even the slots ahead of the offending one.
func TestSlotsStepContractViolation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rates []bw.Rate
	}{
		{"short", []bw.Rate{5}},
		{"long", []bw.Rate{5, 5, 5}},
		{"negative", []bw.Rate{5, -1}},
	} {
		s := NewSlots(2)
		pending := []bw.Bits{8, 8}
		r, err := s.Step(0, multiAllocFunc(func(bw.Tick, []bw.Bits, []bw.Bits) []bw.Rate {
			return tc.rates
		}), pending)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if r.Arrived != 16 || r.Served != 0 || r.Changes != 0 || r.Total != 0 {
			t.Errorf("%s: round = %+v", tc.name, r)
		}
		for i := 0; i < 2; i++ {
			if s.Queue(i).Bits() != 8 || s.Queue(i).Served() != 0 || s.Rate(i) != 0 || s.Changes(i) != 0 {
				t.Errorf("%s: slot %d touched: queued %d served %d rate %d changes %d", tc.name, i,
					s.Queue(i).Bits(), s.Queue(i).Served(), s.Rate(i), s.Changes(i))
			}
		}
	}
}

// TestSlotsSliceAndMove: a Slice steps only its own range of the shared
// table, and Move carries queue and change count while rates stay put
// and the table-wide change total is conserved.
func TestSlotsSliceAndMove(t *testing.T) {
	s := NewSlots(4)
	pending := []bw.Bits{0, 0, 20, 0}
	// Link 0 (slots 0-1) changes once; link 1 (slots 2-3) raises slot 2's
	// rate every tick.
	if _, err := s.Slice(0, 2).Step(0, multiAllocFunc(func(bw.Tick, []bw.Bits, []bw.Bits) []bw.Rate {
		return []bw.Rate{2, 2}
	}), pending[0:2]); err != nil {
		t.Fatal(err)
	}
	hi := s.Slice(2, 4)
	for tick := bw.Tick(0); tick < 2; tick++ {
		if _, err := hi.Step(tick, multiAllocFunc(func(tk bw.Tick, _, _ []bw.Bits) []bw.Rate {
			return []bw.Rate{5 + tk, 1}
		}), pending[2:4]); err != nil {
			t.Fatal(err)
		}
	}
	changes := func() (c [4]int, sum int) {
		for i := range c {
			c[i] = s.Changes(i)
			sum += c[i]
		}
		return c, sum
	}
	before, total := changes()
	if before != [4]int{1, 1, 2, 1} || s.Queue(2).Bits() != 9 {
		t.Fatalf("after slice steps: changes %v, slot 2 queued %d", before, s.Queue(2).Bits())
	}
	s.Move(0, 2)
	if s.Queue(0).Bits() != 9 || s.Queue(0).Served() != 11 || s.Queue(2).Bits() != 0 || s.Queue(2).Served() != 0 {
		t.Errorf("queue did not move: dst %d/%d src %d/%d",
			s.Queue(0).Bits(), s.Queue(0).Served(), s.Queue(2).Bits(), s.Queue(2).Served())
	}
	after, totalAfter := changes()
	if after[0] != before[2] {
		t.Errorf("session's change count %d did not travel: dst has %d", before[2], after[0])
	}
	if totalAfter != total {
		t.Errorf("table-wide changes %d -> %d across a move", total, totalAfter)
	}
	if s.Rate(0) != 2 || s.Rate(2) != 6 {
		t.Errorf("rates moved with the session: dst %d src %d, want 2/6", s.Rate(0), s.Rate(2))
	}
}
