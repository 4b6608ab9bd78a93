package sim_test

import (
	"fmt"
	"testing"

	"dynbw/internal/bitset"
	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/queue"
	"dynbw/internal/rng"
	"dynbw/internal/sim"
	"dynbw/internal/traffic"
)

// oracle is the step kernel with no drain lines: each round walks every
// slot with pending or queued bits twice, enqueueing the arrivals and
// then serving every backlogged queue at its rate with one Serve a tick.
// It asks its allocator when the kernel does — on a round with arrivals,
// or from the Due the last asking round left — so the two differ only in
// how a backlog is served, which is what TestKernelMatchesOracle
// compares.
type oracle struct {
	q       []queue.FIFO
	pending []bw.Bits
	changes []int
	rates   []bw.Rate
	active  bitset.Set // slots with pending or queued bits
	total   bw.Rate
	due     bw.Tick
	visit   []int32
	idx     []int32
	bits    []bw.Bits
}

func newOracle(k int) *oracle {
	return &oracle{
		q:       make([]queue.FIFO, k),
		pending: make([]bw.Bits, k),
		changes: make([]int, k),
		rates:   make([]bw.Rate, k),
		active:  bitset.New(k),
	}
}

func (o *oracle) Add(i int, bits bw.Bits) (dropped bw.Bits) {
	if room := sim.MaxBacklog - o.pending[i]; bits > room {
		dropped, bits = bits-room, room
	}
	if bits > 0 {
		o.pending[i] += bits
		o.active.Add(i)
	}
	return dropped
}

// vacate ends slot i's tenancy as the kernel's Unseat does.
func (o *oracle) vacate(i int) sim.Tenancy {
	q := &o.q[i]
	t := sim.Tenancy{Served: q.Served(), Dropped: o.pending[i] + q.Bits(), MaxDelay: q.MaxDelay(), Changes: o.changes[i]}
	q.Reset()
	o.pending[i], o.changes[i] = 0, 0
	o.active.Remove(i)
	return t
}

func (o *oracle) Step(t bw.Tick, alloc sim.SparseAllocator, r *sim.Round) error {
	o.visit = o.active.AppendTo(o.visit[:0], 0, len(o.q))
	*r = sim.Round{Rates: o.rates, Total: o.total, Active: len(o.visit), Backlogged: len(o.visit), Due: o.due}
	o.idx, o.bits = o.idx[:0], o.bits[:0]
	ask := t >= o.due
	for _, i := range o.visit {
		a := o.pending[i]
		ask = ask || a > 0
		o.pending[i] = 0
		if room := sim.MaxBacklog - o.q[i].Bits(); a > room {
			r.Policed += a - room
			a = room
		}
		if a > 0 {
			o.q[i].Push(t, a)
			o.idx, o.bits = append(o.idx, i), append(o.bits, a)
			r.Arrived += a
		}
	}
	if ask {
		o.due = t + 1
		r.Due = o.due
		changed, rates := alloc.RatesActive(t, o.idx, o.bits, o.rates)
		if len(changed) != len(rates) {
			return fmt.Errorf("ragged answer")
		}
		for j, i := range changed {
			if uint(i) >= uint(len(o.rates)) || rates[j] < 0 {
				return fmt.Errorf("bad answer")
			}
		}
		for j, i := range changed {
			if rates[j] != o.rates[i] {
				o.total += rates[j] - o.rates[i]
				o.rates[i] = rates[j]
				o.changes[i]++
				r.Changes++
			}
		}
		r.Total = o.total
		if r.Changes == 0 && len(o.idx) == 0 {
			if n, ok := alloc.(interface{ Next(t bw.Tick) bw.Tick }); ok {
				o.due = n.Next(t)
				r.Due = o.due
			}
		}
	} else if len(o.visit) == 0 {
		return nil
	}
	for _, i := range o.visit {
		r.Served += o.q[i].Serve(t, o.rates[i])
		if o.q[i].Bits() == 0 {
			o.active.Remove(int(i))
			r.Backlogged--
		}
	}
	return nil
}

// churner is a seeded allocator that moves rates on its own: each round
// a few sessions, arrivals or not, get a new rate, 0 among them, so
// draining queues are re-rated, stopped and restarted mid-backlog. With
// fail set, about one round in forty answers with a negative rate; with
// panics set, about one in forty panics in place of an answer.
type churner struct {
	src     *rng.Source
	k       int
	fail    bool
	panics  bool
	changed []int32
	rates   []bw.Rate
}

func (c *churner) RatesActive(_ bw.Tick, arrived []int32, _ []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	c.changed, c.rates = c.changed[:0], c.rates[:0]
	seen := make(map[int32]bool)
	pick := func(i int32) {
		if !seen[i] {
			seen[i] = true
			c.changed, c.rates = append(c.changed, i), append(c.rates, bw.Rate(c.src.Intn(4))*bw.Rate(c.src.Intn(5)))
		}
	}
	for _, i := range arrived {
		if c.src.Intn(2) == 0 {
			pick(i)
		}
	}
	for range c.src.Intn(3) {
		pick(int32(c.src.Intn(c.k)))
	}
	if c.fail && c.src.Intn(40) == 0 {
		c.changed, c.rates = append(c.changed[:0], 0), append(c.rates[:0], -1)
	}
	if c.panics && c.src.Intn(40) == 0 {
		panic("churner: allocator bug")
	}
	return c.changed, c.rates
}

// stepContained runs a Step as the gateway's round does: a panic under
// it abandons the round and is reported, not raised.
func stepContained(step func() error) (err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return step(), false
}

// kernelLane is one side of the comparison: the kernel or the oracle,
// its allocator and a delay histogram a slot.
type kernelLane struct {
	alloc sim.SparseAllocator
	round sim.Round
	hist  []queue.DelayHist
}

// compareKernel steps the kernel and the oracle through ticks rounds of
// input (then as many more as their queues take to drain, up to drain),
// each under its own allocator from build, and fails on the first round
// whose fields differ or after which a slot reads differently: its
// queued, served and max-delay counters, its oldest bit, and the
// quantiles of its delay histogram, each slot every readEvery rounds and
// every slot at the end. With ends set, every k seated
// sessions end one in twenty ticks on average, a random one, its slot
// taken again at once (Unseat and Seat); the tenancies must agree too.
// A round whose allocator panics is abandoned on both sides, and the
// slots must still agree after it.
func compareKernel(k int, ticks, drain bw.Tick, build func() sim.SparseAllocator,
	input func(bw.Tick, []bw.Bits), ends *rng.Source, fail func(format string, args ...any)) {
	slots, orc := sim.NewSlots(k), newOracle(k)
	for range k {
		slots.Seat()
	}
	lanes := [2]kernelLane{{alloc: build(), hist: make([]queue.DelayHist, k)}, {alloc: build(), hist: make([]queue.DelayHist, k)}}
	for i := range k {
		lanes[0].hist[i].Attach(slots.Queue(i))
		lanes[1].hist[i].Attach(&orc.q[i])
	}
	arrived := make([]bw.Bits, k)
	for tick := bw.Tick(0); tick < ticks+drain; tick++ {
		clear(arrived)
		if tick < ticks {
			input(tick, arrived)
		}
		if ends != nil && ends.Intn(20) == 0 {
			i := ends.Intn(k)
			got, want := slots.Unseat(i, lanes[0].alloc), orc.vacate(i)
			if j, _, ok := slots.Seat(); got != want || !ok || j != i {
				fail("tick %d: slot %d: tenancy %+v, oracle %+v; seated again at %d, %v", tick, i, got, want, j, ok)
				return
			}
		}
		for i, a := range arrived {
			if d, e := slots.Add(i, a), orc.Add(i, a); d != e {
				fail("tick %d: slot %d: Add dropped %d, oracle %d", tick, i, d, e)
				return
			}
		}
		err, panicked := stepContained(func() error { return slots.Step(tick, lanes[0].alloc, &lanes[0].round) })
		oerr, opanicked := stepContained(func() error { return orc.Step(tick, lanes[1].alloc, &lanes[1].round) })
		if (err == nil) != (oerr == nil) || panicked != opanicked {
			fail("tick %d: Step error %v, panicked %v; oracle %v, %v", tick, err, panicked, oerr, opanicked)
			return
		}
		got, want := lanes[0].round, lanes[1].round
		if !panicked && fmt.Sprint(got) != fmt.Sprint(want) { // an abandoned round reports nothing
			fail("tick %d: round %+v, oracle %+v", tick, got, want)
			return
		}
		// Reading a slot brings its drain line up to date, so each is read
		// every readEvery ticks, staggered, and all of them at the end:
		// between reads a line spans several rounds and rate changes.
		last := tick >= ticks && got.Backlogged == 0 && len(orc.visit) == 0 || tick == ticks+drain-1
		for i := range k {
			if !last && (int(tick)+i)%readEvery != 0 {
				continue
			}
			q, o := slots.Queue(i), &orc.q[i]
			at, ok := q.Oldest()
			oat, ook := o.Oldest()
			if q.Bits() != o.Bits() || q.Served() != o.Served() || q.MaxDelay() != o.MaxDelay() || ok != ook || ok && at != oat ||
				slots.Changes(i) != orc.changes[i] {
				fail("tick %d: slot %d queued/served/max delay/oldest/changes %d/%d/%d/%d,%v/%d, oracle %d/%d/%d/%d,%v/%d", tick, i,
					q.Bits(), q.Served(), q.MaxDelay(), at, ok, slots.Changes(i), o.Bits(), o.Served(), o.MaxDelay(), oat, ook, orc.changes[i])
				return
			}
			for _, p := range []float64{0.01, 0.5, 0.9, 1} {
				if g, w := lanes[0].hist[i].Quantile(p), lanes[1].hist[i].Quantile(p); g != w {
					fail("tick %d: slot %d: delay quantile %v %d, oracle %d", tick, i, p, g, w)
					return
				}
			}
		}
		if last {
			return
		}
	}
}

// readEvery is how many rounds compareKernel lets pass between two reads
// of a slot.
const readEvery = 3

// kernelPolicies are the paper's policies at B_O = share·k.
func kernelPolicies(do bw.Tick) map[string]func(k int, share bw.Rate) sim.SparseAllocator {
	multi := func(k int, share bw.Rate) core.MultiParams {
		return core.MultiParams{K: k, BO: share * bw.Rate(k), DO: do}
	}
	return map[string]func(int, bw.Rate) sim.SparseAllocator{
		"phased":     func(k int, share bw.Rate) sim.SparseAllocator { return core.MustNewPhased(multi(k, share)) },
		"continuous": func(k int, share bw.Rate) sim.SparseAllocator { return core.MustNewContinuous(multi(k, share)) },
		"combined": func(k int, share bw.Rate) sim.SparseAllocator {
			return core.MustNewCombined(core.CombinedParams{K: k, BA: bw.NextPow2(8 * share * bw.Rate(k)), DO: do, UO: 0.5, W: 2 * do})
		},
	}
}

// TestKernelMatchesOracle is the differential test of the drain lines:
// the kernel, which visits a backlogged slot only at its events, must
// report every round and leave every slot exactly as the oracle, which
// serves every backlogged queue every tick. The paper's policies run on
// every input of two sessions over three ticks of 0, 1, 2, 4 or 8 bits
// (the enumeration TestSkipMatchesAsking uses) and on E7's and E8's
// planted workloads; a seeded churner that re-rates draining slots and
// sets rate 0 runs on random bursts, with sessions ending and slots
// taken again, with and without contract breaches, and with an
// allocator that panics.
func TestKernelMatchesOracle(t *testing.T) {
	const (
		smallDO    = bw.Tick(4)
		smallTicks = 3
		k          = 2
	)
	alphabet := []bw.Bits{0, 1, 2, 4, 8}
	for name, build := range kernelPolicies(smallDO) {
		t.Run("every-input/"+name, func(t *testing.T) {
			n := 1
			for range k * smallTicks {
				n *= len(alphabet)
			}
			digits := make([]bw.Bits, k*smallTicks)
			input := func(tick bw.Tick, arrived []bw.Bits) { copy(arrived, digits[int(tick)*k:]) }
			failed := false
			for code := 0; code < n && !failed; code++ {
				for j, c := 0, code; j < len(digits); j, c = j+1, c/len(alphabet) {
					digits[j] = alphabet[c%len(alphabet)]
				}
				compareKernel(k, smallTicks, 8*smallDO, func() sim.SparseAllocator { return build(k, 1) }, input, nil,
					func(format string, args ...any) {
						t.Errorf("input %v: "+format, append([]any{digits}, args...)...)
						failed = true
					})
			}
		})
	}
	for _, kk := range []int{2, 8, 32} { // E7 and E8 (harness.multiSweep)
		const do = bw.Tick(8)
		pl, err := traffic.NewPlanted(traffic.PlantedParams{
			Seed: uint64(1000 + kk), K: kk, BO: bw.Rate(16 * kk), DO: do,
			Phases: 24, PhaseLen: 8 * do, ShufflesPerPhase: 3, Fill: 0.8,
		})
		if err != nil {
			t.Fatal(err)
		}
		input := func(tick bw.Tick, arrived []bw.Bits) {
			for i := range arrived {
				arrived[i] = pl.Multi.Session(i).At(tick)
			}
		}
		for name, build := range kernelPolicies(do) {
			t.Run(fmt.Sprintf("E7-E8/k=%d/%s", kk, name), func(t *testing.T) {
				compareKernel(kk, pl.Multi.Len(), 64*do, func() sim.SparseAllocator { return build(kk, 16) }, input, nil, t.Fatalf)
			})
		}
	}
	for _, c := range []struct {
		name         string
		fail, panics bool
		drain        bw.Tick
	}{{"fail=false", false, false, 0}, {"fail=true", true, false, 0}, {"panics", false, true, 64}} {
		t.Run("churner/"+c.name, func(t *testing.T) {
			const kk, ticks = 12, 3000
			src := rng.New(11)
			input := func(_ bw.Tick, arrived []bw.Bits) {
				for i := range arrived {
					if src.Intn(6) == 0 {
						arrived[i] = src.Int64n(40)
					}
				}
			}
			seed := uint64(0)
			build := func() sim.SparseAllocator {
				seed++ // the same seed for both lanes: build is called twice a run
				return &churner{src: rng.New(100 + (seed+1)/2), k: kk, fail: c.fail, panics: c.panics}
			}
			compareKernel(kk, ticks, c.drain, build, input, rng.New(12), t.Fatalf)
		})
	}
}
