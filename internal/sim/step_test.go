package sim

import (
	"slices"
	"testing"
	"unsafe"

	"dynbw/internal/bw"
	"dynbw/internal/queue"
	"dynbw/internal/rng"
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
	res, err := r.Run(trace.MustNewMulti(sessions), perSession(k, 96), Options{})
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

// TestSlotRecordSizes pins a slot's record to one cache line: 40 bytes
// of queue and the drain-line, pending and change words. A field added
// to the FIFO fails here instead of adding a line to every busy slot.
// (The policies' session record has the same test in internal/core.)
func TestSlotRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(queue.FIFO{}); got != 40 {
		t.Errorf("queue.FIFO is %d B, want 40", got)
	}
	if got := unsafe.Sizeof(slot{}); got != 64 {
		t.Errorf("the kernel's slot record is %d B, want 64", got)
	}
}

func TestSlotsStepRound(t *testing.T) {
	s := NewSlots(2)
	if dropped := s.Add(0, 10); dropped != 0 {
		t.Fatalf("Add dropped %d bits", dropped)
	}
	var seen [2][2]bw.Bits // each policy's last arrived and queued
	policy := func(i int, rate bw.Rate) Allocator {
		return AllocatorFunc(func(_ bw.Tick, arrived, queued bw.Bits) bw.Rate {
			seen[i] = [2]bw.Bits{arrived, queued}
			return rate
		})
	}
	alloc := &Separate{Allocs: []Allocator{policy(0, 4), policy(1, 3)}}
	var r Round
	err := s.Step(0, alloc, &r)
	if err != nil {
		t.Fatal(err)
	}
	if seen != [2][2]bw.Bits{{10, 10}, {0, 0}} {
		t.Errorf("policies saw arrived, queued %v", seen)
	}
	if r.Arrived != 10 || r.Served != 4 || r.Total != 7 || r.Changes != 2 || r.Active != 1 || len(r.Rates) != 2 {
		t.Errorf("round = %+v", r)
	}
	if s.Queue(0).Bits() != 6 || s.Rate(0) != 4 || s.Rate(1) != 3 || s.Changes(0) != 1 || s.Changes(1) != 1 {
		t.Errorf("slot state: queued %d rates %d/%d changes %d/%d",
			s.Queue(0).Bits(), s.Rate(0), s.Rate(1), s.Changes(0), s.Changes(1))
	}
	// The second round finds nothing pending: slot 0 is visited for its
	// backlog alone, no rate moves, and the total carries over unchanged.
	if err = s.Step(1, alloc, &r); err != nil || r.Arrived != 0 || r.Served != 4 || r.Total != 7 || r.Changes != 0 || r.Active != 1 {
		t.Errorf("second round = %+v, %v", r, err)
	}
	if seen != [2][2]bw.Bits{{0, 6}, {0, 0}} {
		t.Errorf("second round: policies saw arrived, queued %v", seen)
	}
}

// answer is a sparse allocator whose every round reports the same
// changes.
type answer struct {
	changed []int32
	rates   []bw.Rate
}

func (a *answer) RatesActive(bw.Tick, []int32, []bw.Bits, []bw.Rate) ([]int32, []bw.Rate) {
	return a.changed, a.rates
}

// TestSlotsStepContractViolation: a bad answer is an error, the arrivals
// are still enqueued, and nothing is served or recounted — not even the
// slots whose reported rates were fine. The next round, with the
// allocator mended, serves them.
func TestSlotsStepContractViolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  SparseAllocator
	}{
		{"ragged", ragged{}},
		{"outside", &answer{[]int32{0, 2}, []bw.Rate{5, 5}}},
		{"negative", &answer{[]int32{0, 1}, []bw.Rate{5, -1}}},
	} {
		s := NewSlots(2)
		s.Add(0, 8)
		s.Add(1, 8)
		// One Round for every step, as a caller keeps it: each overwrites it.
		var r Round
		for tick := bw.Tick(0); tick < 2; tick++ { // a standing violation is reported every round
			err := s.Step(tick, tc.bad, &r)
			if err == nil {
				t.Errorf("%s: accepted at tick %d", tc.name, tick)
				continue
			}
			if want := 16 * (1 - tick); r.Arrived != want || r.Served != 0 || r.Changes != 0 || r.Total != 0 || r.Active != 2 || r.Backlogged != 2 {
				t.Errorf("%s: round %d = %+v", tc.name, tick, r)
			}
			for i := 0; i < 2; i++ {
				if s.Queue(i).Bits() != 8 || s.Queue(i).Served() != 0 || s.Rate(i) != 0 || s.Changes(i) != 0 {
					t.Errorf("%s: slot %d touched: queued %d served %d rate %d changes %d", tc.name, i,
						s.Queue(i).Bits(), s.Queue(i).Served(), s.Rate(i), s.Changes(i))
				}
			}
		}
		mended := &answer{[]int32{0, 1}, []bw.Rate{5, 5}}
		if err := s.Step(2, mended, &r); err != nil || r.Served != 10 || r.Changes != 2 || r.Total != 10 {
			t.Errorf("%s: mended round = %+v, %v", tc.name, r, err)
		}
	}
}

// ragged reports more sessions than rates.
type ragged struct{}

func (ragged) RatesActive(bw.Tick, []int32, []bw.Bits, []bw.Rate) ([]int32, []bw.Rate) {
	return []int32{0, 1}, []bw.Rate{5}
}

// TestSlotsStepRejectsRaggedAnswer: an answer whose two lists differ in
// length is a contract violation like the others: an error, and nothing
// applied or served.
func TestSlotsStepRejectsRaggedAnswer(t *testing.T) {
	s := NewSlots(2)
	s.Add(0, 8)
	var r Round
	if err := s.Step(0, ragged{}, &r); err == nil || r.Served != 0 || r.Changes != 0 || s.Rate(0) != 0 {
		t.Errorf("round = %+v, %v; slot 0 rate %d", r, err, s.Rate(0))
	}
}

// spy is a sparse allocator that records which sessions the kernel told
// it of and reports no change. rates is what the allocators built on it
// hand out.
type spy struct {
	rates []bw.Rate
	told  []int32
}

func (a *spy) RatesActive(_ bw.Tick, arrived []int32, _ []bw.Bits, _ []bw.Rate) ([]int32, []bw.Rate) {
	a.told = append(a.told[:0], arrived...)
	return nil, nil
}

// TestSlotsActiveSet: the allocator is told of exactly the slots that
// received bits since the last round; Round.Active counts the slots the
// round visited — those, and the ones with bits queued from before —
// and Round.Backlogged the ones it left with bits queued; and a round
// over an idle table, whatever its size, visits nothing and allocates
// nothing.
func TestSlotsActiveSet(t *testing.T) {
	const k = 100_000
	s := NewSlots(k)
	a := &spy{rates: make([]bw.Rate, k)}
	idle := func() {
		var r Round
		err := s.Step(0, a, &r)
		if err != nil || r.Active != 0 || r.Backlogged != 0 || len(a.told) != 0 {
			t.Fatalf("idle round = %+v, %v; allocator told of %v", r, err, a.told)
		}
	}
	if avg := testing.AllocsPerRun(10, idle); avg != 0 {
		t.Errorf("idle round over %d slots allocates %.1f objects", k, avg)
	}

	// Rate 0 everywhere: what arrives stays queued, so the visited slots
	// are exactly the ones that ever received bits, while the allocator
	// hears of each only in the round its bits arrive.
	want := []int32{0, 63, 64, 4097, k - 1}
	for _, i := range want {
		s.Add(int(i), 5)
	}
	for tick := bw.Tick(1); tick < 4; tick++ {
		told := want
		if tick > 1 {
			told = nil
		}
		var r Round
		err := s.Step(tick, a, &r)
		if err != nil || r.Active != len(want) || r.Backlogged != len(want) || !slices.Equal(a.told, told) {
			t.Fatalf("tick %d: round = %+v, %v; allocator told of %v, want %v", tick, r, err, a.told, told)
		}
	}
	// Bits for one queued slot and one idle one: the allocator hears of
	// those two, the round visits all six.
	s.Add(63, 1)
	s.Add(5000, 2)
	var r Round
	err := s.Step(4, a, &r)
	if told := []int32{63, 5000}; err != nil || r.Active != 6 || r.Backlogged != 6 || !slices.Equal(a.told, told) {
		t.Fatalf("tick 4: round = %+v, %v; allocator told of %v, want %v", r, err, a.told, told)
	}
	// Serve slot 64 dry: the round that does so still visits it, and it
	// leaves the set; the others stay, and the allocator hears of none.
	a.rates[64] = 5
	if err := s.Step(5, rateChange{a, 64}, &r); err != nil || r.Active != 6 || r.Backlogged != 5 || len(a.told) != 0 {
		t.Fatalf("tick 5: round = %+v, %v; allocator told of %v", r, err, a.told)
	}
	err = s.Step(6, a, &r)
	if err != nil || r.Active != 5 || len(a.told) != 0 {
		t.Errorf("after slot 64 drained: round = %+v, %v; allocator told of %v", r, err, a.told)
	}
	backlogged := 0
	for i := 0; i < k; i++ {
		if s.Queue(i).Bits() > 0 {
			backlogged++
		}
	}
	if r.Active != backlogged || r.Backlogged != backlogged {
		t.Errorf("Round.Active = %d, Round.Backlogged = %d, %d slots are backlogged", r.Active, r.Backlogged, backlogged)
	}
}

// everyRate serves every session of a view at one rate, reporting each
// session whose applied rate differs, so the kernel applies the rate
// again whatever a Reset did to its own vector.
type everyRate struct {
	spy
	rate    bw.Rate
	changed []int32
	moved   []bw.Rate
}

func newEveryRate(rate bw.Rate) *everyRate { return &everyRate{rate: rate} }

func (a *everyRate) RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	a.spy.RatesActive(t, arrived, bits, applied)
	a.changed, a.moved = a.changed[:0], a.moved[:0]
	for i, r := range applied {
		if r != a.rate {
			a.changed = append(a.changed, int32(i))
			a.moved = append(a.moved, a.rate)
		}
	}
	return a.changed, a.moved
}

// TestSlotsActiveSetAcrossResets: a table resized by Reset reads its
// active set through both of its levels. On a table wide enough for
// three summary words, Reset cuts it to lengths whose bounds fall inside
// member words and straddle summary words, one after another, as a
// runner does from run to run, in random order. After each Reset no
// slot of the capacity holds bits or lies in the active or seated set,
// and then every slot is seated. Under each length, random Adds,
// vacates, Resets and rounds that drain slots leave every round telling
// the allocator of exactly the slots with Pending > 0, visiting exactly
// the slots that hold bits — the references are walks over them — and
// reporting how many it left backlogged. (That a summary bit is set exactly while its word is
// non-zero is bitset's own test; the kernel writes the set through Add,
// Remove and ClearRange alone. A summary bit cleared too early would
// hide a slot with work from a round here.)
func TestSlotsActiveSetAcrossResets(t *testing.T) {
	const k = 2*64*64 + 500
	cuts := []int{3000, 6000, k}
	s := NewSlots(k)
	hasWork := func(i int) bool { return s.Pending(i) > 0 || s.Queue(i).Bits() > 0 }
	src := rng.New(5)
	var n int
	reset := func(phase int) {
		s.Reset(n)
		whole := s.slots[:k]
		for i := range whole {
			if whole[i].pending > 0 || whole[i].q.Bits() > 0 || s.active.Has(i) || s.seated.Has(i) {
				t.Fatalf("phase %d: after Reset(%d), slot %d holds %d pending, %d queued, active %v, seated %v",
					phase, n, i, whole[i].pending, whole[i].q.Bits(), s.active.Has(i), s.seated.Has(i))
			}
		}
		for range n { // every slot seated, for the next Reset to clear
			s.Seat()
		}
	}
	// Busy slots cluster around the cuts and the summary words' bounds
	// (slots 4096 and 8192), so most words of the set stay empty.
	slot := func() int {
		edges := []int{0, 2990, 4090, 5990, 8185, k - 10}
		for {
			if i := edges[src.Intn(len(edges))] + src.Intn(20); i < n {
				return i
			}
		}
	}
	var tick bw.Tick
	rounds := 0
	for phase := 0; phase < 12; phase++ {
		n = cuts[src.Intn(len(cuts))]
		reset(phase)
		alloc := newEveryRate(3)
		for step := 0; step < 400; step++ {
			switch op := src.Intn(10); {
			case op < 4:
				s.Add(slot(), 1+src.Int64n(12))
			case op == 4:
				s.vacate(slot())
			case op == 5 && step%97 == 0:
				reset(phase)
			default:
				var told []int32
				visits := 0
				for i := 0; i < n; i++ {
					if s.Pending(i) > 0 {
						told = append(told, int32(i))
					}
					if hasWork(i) {
						visits++
					}
				}
				var r Round
				err := s.Step(tick, alloc, &r)
				tick++
				if err != nil || r.Active != visits || !slices.Equal(alloc.told, told) {
					t.Fatalf("phase %d, step %d, %d slots: round = %+v, %v, want %d visits; allocator told of %v, want %v", phase, step, n, r, err, visits, alloc.told, told)
				}
				left := 0
				for i := 0; i < n; i++ {
					if hasWork(i) {
						left++
					}
				}
				if r.Backlogged != left {
					t.Fatalf("phase %d, step %d, %d slots: Round.Backlogged = %d, %d slots hold bits", phase, step, n, r.Backlogged, left)
				}
				if visits > 0 {
					rounds++
				}
			}
		}
	}
	if rounds < 500 {
		t.Errorf("only %d rounds with work; the run compares too little", rounds)
	}
}

// rateChange moves one session to the spy's rate for it, when that
// differs from the applied one.
type rateChange struct {
	*spy
	session int32
}

func (a rateChange) RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	a.spy.RatesActive(t, arrived, bits, applied)
	if r := a.rates[a.session]; r != applied[a.session] {
		return []int32{a.session}, []bw.Rate{r}
	}
	return nil, nil
}

// TestSlotsAddSaturates: neither the arrivals waiting for a round nor a
// slot's queue ever exceed MaxBacklog; Add and Step report what they
// dropped, and volumes that would overflow an int64 do no harm.
func TestSlotsAddSaturates(t *testing.T) {
	s := NewSlots(2)
	const huge = bw.Bits(1) << 62
	if d := s.Add(0, huge); d != huge-MaxBacklog {
		t.Errorf("first Add dropped %d, want %d", d, huge-MaxBacklog)
	}
	if d := s.Add(0, huge); d != huge {
		t.Errorf("Add to a full pending cell dropped %d, want all %d", d, huge)
	}
	a := &spy{rates: []bw.Rate{0, 0}}
	var r Round
	err := s.Step(0, a, &r)
	if err != nil || r.Arrived != MaxBacklog || r.Policed != 0 || s.Queue(0).Bits() != MaxBacklog {
		t.Fatalf("round = %+v, %v; queued %d", r, err, s.Queue(0).Bits())
	}
	// The slow variant of the overflow: a full queue topped up every
	// tick. The pending cell takes a capful, the round drops it whole.
	for tick := bw.Tick(1); tick < 4; tick++ {
		if d := s.Add(0, huge); d != huge-MaxBacklog {
			t.Errorf("tick %d: Add dropped %d, want %d", tick, d, huge-MaxBacklog)
		}
		var r Round
		err := s.Step(tick, a, &r)
		if err != nil || r.Arrived != 0 || r.Policed != MaxBacklog {
			t.Fatalf("tick %d: round = %+v, %v", tick, r, err)
		}
	}
	if s.Queue(0).Bits() != MaxBacklog || s.Pending(0) != 0 {
		t.Errorf("queue holds %d bits, %d pending; cap is %d", s.Queue(0).Bits(), s.Pending(0), MaxBacklog)
	}
	if d := s.Add(1, 7); d != 0 {
		t.Errorf("the neighbour's Add dropped %d", d)
	}

	// Add touches the pending cell only: what a round writes — served,
	// queued, max delay, changes, rate — reads the same before and after,
	// so arrivals between rounds commute with reading the slot.
	s = NewSlots(1)
	s.Add(0, 30)
	for tick := bw.Tick(0); tick < 3; tick++ {
		if err := s.Step(tick, rateChange{&spy{rates: []bw.Rate{4}}, 0}, new(Round)); err != nil {
			t.Fatal(err)
		}
	}
	type read struct {
		served, queued bw.Bits
		maxDelay       bw.Tick
		changes        int
		rate           bw.Rate
	}
	look := func() read {
		q := s.Queue(0)
		return read{q.Served(), q.Bits(), q.MaxDelay(), s.Changes(0), s.Rate(0)}
	}
	before := look()
	if before.served == 0 || before.maxDelay == 0 || before.changes == 0 {
		t.Fatalf("fixture reads %+v; want a slot served, queued, delayed and re-rated", before)
	}
	for _, bits := range []bw.Bits{7, 0, huge, huge} {
		s.Add(0, bits)
		if got := look(); got != before {
			t.Errorf("Add(%d) changed the slot's reading from %+v to %+v", bits, before, got)
		}
	}
}

// TestSlotsVacate: ending a tenancy returns what it amounted to and
// leaves the slot as a new table has it, but for the rate, which is the
// allocator's: nothing pending or queued, counters at zero, out of the
// active set. A neighbour is untouched.
func TestSlotsVacate(t *testing.T) {
	s := NewSlots(3)
	a := &spy{rates: []bw.Rate{4, 4, 0}}
	s.Add(0, 30)
	s.Add(1, 30)
	for tick := bw.Tick(0); tick < 3; tick++ {
		if err := s.Step(tick, rateChange{a, 0}, new(Round)); err != nil {
			t.Fatal(err)
		}
	}
	s.Add(0, 7) // pending at the end, on top of 18 queued
	if got, want := s.vacate(0), (Tenancy{Served: 12, Dropped: 25, MaxDelay: 2, Changes: 1}); got != want {
		t.Errorf("vacate = %+v, want %+v", got, want)
	}
	if q := s.Queue(0); s.Pending(0) != 0 || q.Bits() != 0 || q.Served() != 0 || q.MaxDelay() != 0 || s.Changes(0) != 0 || s.Rate(0) != 4 {
		t.Errorf("vacated slot: pending %d queued %d served %d max delay %d changes %d rate %d",
			s.Pending(0), q.Bits(), q.Served(), q.MaxDelay(), s.Changes(0), s.Rate(0))
	}
	if got := s.vacate(0); got != (Tenancy{}) {
		t.Errorf("a second vacate finds %+v", got)
	}
	// The vacated slot's pending bits are gone with it: the round visits
	// slot 1's backlog alone and tells the allocator of no arrival.
	var r Round
	err := s.Step(3, a, &r)
	if err != nil || r.Active != 1 || r.Arrived != 0 || len(a.told) != 0 {
		t.Errorf("round after vacate = %+v, %v; allocator told of %v, want none", r, err, a.told)
	}
	// The next tenant's first bit is served on arrival.
	s.Add(0, 3)
	if err := s.Step(4, a, &r); err != nil || r.Active != 2 || !slices.Equal(a.told, []int32{0}) {
		t.Fatalf("next tenant's round = %+v, %v; allocator told of %v, want [0]", r, err, a.told)
	}
	if q := s.Queue(0); q.Served() != 3 || q.MaxDelay() != 0 {
		t.Errorf("next tenant: served %d, max delay %d", q.Served(), q.MaxDelay())
	}

	var sum Tenancy
	sum.Add(Tenancy{Served: 5, Dropped: 1, MaxDelay: 7, Changes: 2})
	sum.Add(Tenancy{Served: 3, MaxDelay: 4, Changes: 1})
	if want := (Tenancy{Served: 8, Dropped: 1, MaxDelay: 7, Changes: 3}); sum != want {
		t.Errorf("Tenancy.Add = %+v, want %+v", sum, want)
	}
}

// leaver is rateChange with state per session: it records every Leave.
type leaver struct {
	rateChange
	left []int
}

func (a *leaver) Leave(i int) { a.left = append(a.left, i) }

// seatOp is one step of a TestSlotsSeat script: S seats, U unseats slot
// i, A adds bits to slot i, R runs a round and Z resets the table.
type seatOp struct {
	do   byte
	i    int
	bits bw.Bits
}

// TestSlotsSeat pins the seat decision the gateway's shards and
// route.Run share: a Seat takes the lowest free slot, below the hint when
// an Unseat freed one, and fails on a full table; it returns what the
// slot accrued while free, and an Unseat tells the policy Leave once and
// returns the tenancy, the bits it dropped with it. After every script,
// Seated and Tenants agree with a model of the seats taken.
func TestSlotsSeat(t *testing.T) {
	seat, round, reset := seatOp{do: 'S'}, seatOp{do: 'R'}, seatOp{do: 'Z'}
	unseat := func(i int) seatOp { return seatOp{do: 'U', i: i} }
	add := func(i int, bits bw.Bits) seatOp { return seatOp{do: 'A', i: i, bits: bits} }
	for _, tc := range []struct {
		name string
		k    int
		rate bw.Rate // the rate the policy gives slot 0
		ops  []seatOp
		// seats is each Seat's slot, -1 where it failed; leaves the
		// policy's Leave calls; last what the script's last Seat or
		// Unseat returned.
		seats, leaves []int
		last          Tenancy
	}{
		{name: "lowest free first", k: 3, ops: []seatOp{seat, seat, seat}, seats: []int{0, 1, 2}},
		{name: "reuse below the hint", k: 4,
			ops:   []seatOp{seat, seat, seat, unseat(1), seat, seat},
			seats: []int{0, 1, 2, 1, 3}, leaves: []int{1}},
		{name: "full table", k: 2,
			ops:   []seatOp{seat, seat, seat, unseat(0), seat, seat},
			seats: []int{0, 1, -1, 0, -1}, leaves: []int{0}},
		{name: "changes accrued while free", k: 2, rate: 5,
			ops: []seatOp{round, seat}, seats: []int{0}, last: Tenancy{Changes: 1}},
		{name: "unseat drops the backlog", k: 2, rate: 4,
			ops:   []seatOp{seat, add(0, 10), round, add(0, 3), unseat(0)},
			seats: []int{0}, leaves: []int{0}, last: Tenancy{Served: 4, Dropped: 9, Changes: 1}},
		{name: "reset clears every seat", k: 3,
			ops: []seatOp{seat, seat, seat, reset, seat}, seats: []int{0, 1, 2, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSlots(tc.k)
			a := &leaver{rateChange: rateChange{&spy{rates: []bw.Rate{tc.rate}}, 0}}
			model := make([]bool, tc.k)
			var seats []int
			var last Tenancy
			for tick, op := range tc.ops {
				switch op.do {
				case 'S':
					i, free, ok := s.Seat()
					if !ok {
						i = -1
					} else {
						model[i] = true
					}
					seats, last = append(seats, i), free
				case 'U':
					model[op.i] = false
					last = s.Unseat(op.i, a)
				case 'A':
					s.Add(op.i, op.bits)
				case 'R':
					if err := s.Step(bw.Tick(tick), a, new(Round)); err != nil {
						t.Fatal(err)
					}
				case 'Z':
					s.Reset(s.Len())
					clear(model)
				}
			}
			if !slices.Equal(seats, tc.seats) || !slices.Equal(a.left, tc.leaves) || last != tc.last {
				t.Errorf("seats %v, leaves %v, last %+v; want %v, %v, %+v", seats, a.left, last, tc.seats, tc.leaves, tc.last)
			}
			tenants := 0
			for i, seated := range model {
				if s.Seated(i) != seated {
					t.Errorf("Seated(%d) = %v, want %v", i, s.Seated(i), seated)
				}
				if seated {
					tenants++
				}
			}
			if s.Tenants() != tenants {
				t.Errorf("Tenants() = %d, want %d", s.Tenants(), tenants)
			}
		})
	}
}

// every10 is a sparse allocator whose rates can move only every ten
// ticks: it gives a slot with arrivals rate 100, takes it back at the
// next multiple of ten, and names that tick as its Next.
type every10 struct{ asked []bw.Tick }

func (a *every10) RatesActive(t bw.Tick, arrived []int32, _ []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	a.asked = append(a.asked, t)
	var changed []int32
	var rates []bw.Rate
	for i, r := range applied {
		if r > 0 && t%10 == 0 {
			changed, rates = append(changed, int32(i)), append(rates, 0)
		}
	}
	for _, i := range arrived {
		changed, rates = append(changed, i), append(rates, 100)
	}
	return changed, rates
}

func (a *every10) Next(t bw.Tick) bw.Tick { return (t/10 + 1) * 10 }

// TestSlotsQuietRounds: a round with no slot to visit does not ask an
// allocator with a Next before the tick it named, and reports a round
// in which nothing arrived, was served or changed, every field written.
// Round.Due is the allocator's Next after a round that visited no slot
// and moved no rate, and the next tick after any other: one with
// arrivals, one with a backlog, one where a rate moved though no slot
// was visited. Reset forgets Due, and an allocator without Next is
// asked every tick.
func TestSlotsQuietRounds(t *testing.T) {
	s := NewSlots(4)
	a := &every10{}
	var r Round
	step := func(tick bw.Tick) {
		t.Helper()
		r = Round{Rates: nil, Arrived: -1, Served: -1, Policed: -1, Total: -1, Changes: -1, Active: -1, Backlogged: -1, Due: -1}
		if err := s.Step(tick, a, &r); err != nil {
			t.Fatal(err)
		}
	}
	wantDue := map[bw.Tick]bw.Tick{
		0: 10, // quiet: the allocator's Next
		3: 4,  // arrivals, served whole: the next tick
		4: 10, // quiet again
		// ticks 5 to 9 are not asked, and carry Due 10
		10: 11, // nothing visited, but slot 2's rate fell back to 0
		11: 20,
	}
	for tick := bw.Tick(0); tick < 15; tick++ {
		if tick == 3 {
			s.Add(2, 60)
		}
		step(tick)
		total := bw.Rate(0)
		if tick >= 3 && tick < 10 {
			total = 100
		}
		if len(r.Rates) != 4 || r.Total != total || r.Policed != 0 || r.Backlogged != 0 {
			t.Errorf("tick %d: round %+v, want 4 rates totalling %d, nothing policed or backlogged", tick, r, total)
		}
		if want, ok := wantDue[tick]; ok && r.Due != want || !ok && r.Due != (tick/10+1)*10 {
			t.Errorf("tick %d: Due = %d", tick, r.Due)
		}
		if tick != 3 && (r.Arrived != 0 || r.Served != 0 || r.Active != 0) {
			t.Errorf("tick %d: a round with nothing to visit reports %+v", tick, r)
		}
	}
	if want := []bw.Tick{0, 3, 4, 10, 11}; !slices.Equal(a.asked, want) {
		t.Errorf("the allocator was asked at ticks %v, want %v", a.asked, want)
	}

	s.Reset(4)
	a.asked = a.asked[:0]
	step(0)
	if len(a.asked) != 1 || r.Due != 10 {
		t.Errorf("after Reset: asked at %v, Due %d; want asked at 0, Due 10", a.asked, r.Due)
	}

	s, sp := NewSlots(4), &spy{}
	for tick := bw.Tick(1); tick < 4; tick++ {
		if err := s.Step(tick, sp, &r); err != nil || r.Due != tick+1 {
			t.Errorf("tick %d without Next: Due %d, %v; want %d", tick, r.Due, err, tick+1)
		}
	}
}

// TestDrainRoundAllocatesNothing: on a warm table, a cycle of one round
// that queues a burst on every slot and the rounds that drain it —
// slots on drain lines, the completion wheel moving them on and emptying
// them, a slot with a histogram served by spans — allocates nothing.
func TestDrainRoundAllocatesNothing(t *testing.T) {
	const k = 1000
	s := NewSlots(k)
	new(queue.DelayHist).Attach(s.Queue(0))
	a := newEveryRate(5)
	src := rng.New(3)
	var r Round
	tick := bw.Tick(0)
	cycle := func() {
		for i := range k {
			s.Add(i, 1+src.Int64n(200))
		}
		for first := true; first || r.Backlogged > 0; first = false {
			if err := s.Step(tick, a, &r); err != nil {
				t.Fatal(err)
			}
			tick++
		}
	}
	for range 200 { // until each of the wheel's buckets has held its peak
		cycle()
	}
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("a burst and the rounds that drain it allocate %.1f objects on a warm table", avg)
	}
}

// panicAt is everyRate with a bug: it panics in place of its answer at
// tick at.
type panicAt struct {
	*everyRate
	at bw.Tick
}

func (a panicAt) RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	if t == a.at {
		panic("allocator bug")
	}
	return a.everyRate.RatesActive(t, arrived, bits, applied)
}

// quietPanicAt is panicAt naming its next event a thousand ticks on, so a
// round with no arrival and nothing queued returns at once.
type quietPanicAt struct{ panicAt }

func (quietPanicAt) Next(t bw.Tick) bw.Tick { return t + 1000 }

// TestAbandonedRoundStrandsNothing: a round whose allocator panics, the
// panic recovered by the caller as the gateway's round does, leaves every
// slot served by the rounds after it. In the first row slot 0 drains
// through the panic; slot 1's last bits arrive in the panicking round;
// slot 2 receives bits in it and again later, so its rate leaves and
// rejoins the drain lines. In the second the panicking round follows
// rounds that returned at once, the allocator's next event far off, so
// the last round that ended is long before it. Every queue empties, the
// table ends with nothing backlogged, and the rounds' Served sums to
// what each slot's queue says it served, which is every bit sent.
func TestAbandonedRoundStrandsNothing(t *testing.T) {
	const bad = bw.Tick(5)
	rows := []struct {
		name  string
		alloc SparseAllocator
		sends map[bw.Tick][]bw.Bits
	}{
		{"draining", panicAt{newEveryRate(3), bad},
			map[bw.Tick][]bw.Bits{0: {40, 0, 0}, 2: {0, 0, 9}, bad: {0, 10, 20}, bad + 3: {0, 0, 7}}},
		{"after quiet ticks", quietPanicAt{panicAt{newEveryRate(3), bad}},
			map[bw.Tick][]bw.Bits{bad: {30, 0, 0}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s := NewSlots(3)
			var sent, served bw.Bits
			var r Round
			abandoned := func(tick bw.Tick) (panicked bool) {
				defer func() { panicked = recover() != nil }()
				if err := s.Step(tick, row.alloc, &r); err != nil {
					t.Fatalf("tick %d: %v", tick, err)
				}
				return false
			}
			for tick := bw.Tick(0); tick < 60; tick++ {
				for i, b := range row.sends[tick] {
					s.Add(i, b)
					sent += b
				}
				if abandoned(tick) != (tick == bad) {
					t.Fatalf("tick %d: the round panicked %v", tick, tick != bad)
				}
				if tick != bad {
					served += r.Served
				}
			}
			var queued, byQueue bw.Bits
			for i := range 3 {
				queued += s.Queue(i).Bits()
				byQueue += s.Queue(i).Served()
			}
			if r.Backlogged != 0 || queued != 0 || s.Completing(60) != 0 {
				t.Errorf("after the drain: %d slots backlogged, %d bits queued, %d completions listed", r.Backlogged, queued, s.Completing(60))
			}
			if served != sent || byQueue != sent {
				t.Errorf("rounds served %d bits, queues %d; %d sent", served, byQueue, sent)
			}
		})
	}
}
