package gateway

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/sim"
)

// counted is a paper policy that counts the rounds that ask it. Next and
// Leave come with the policy.
type counted struct {
	*core.Phased
	calls atomic.Int64
}

func (c *counted) RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	c.calls.Add(1)
	return c.Phased.RatesActive(t, arrived, bits, applied)
}

// hidesNext is a counted policy without its Next: the kernel asks it
// every tick, and a shard that runs it never skips a round.
type hidesNext struct {
	sim.MultiAllocator
	c *counted
}

func (h hidesNext) RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	return h.c.RatesActive(t, arrived, bits, applied)
}

func (h hidesNext) Leave(i int) { h.c.Leave(i) }

// skipRig is a served 4-shard gateway on a manual clock, its policies
// counted, and one connection holding every slot.
type skipRig struct {
	g      *Gateway
	ticks  *manualTicks
	policy []*counted
	mux    *Mux
	ids    []uint32
}

func newSkipRig(t *testing.T, hide bool) *skipRig {
	t.Helper()
	const (
		k, nshards = 16, 4
		do         = bw.Tick(4)
	)
	r := &skipRig{ticks: newManualTicks()}
	allocs := make([]sim.MultiAllocator, nshards)
	for i := range allocs {
		c := &counted{Phased: core.MustNewPhased(core.MultiParams{K: k / nshards, BO: 16 * k / nshards, DO: do})}
		r.policy = append(r.policy, c)
		allocs[i] = c
		if hide {
			allocs[i] = hidesNext{c, c}
		}
	}
	g, err := NewWithConfig(Config{Addr: "127.0.0.1:0", Slots: k, Shards: nshards, ShardAllocs: allocs, Ticks: r.ticks.ch})
	if err != nil {
		t.Fatal(err)
	}
	r.g = g
	if r.mux, err = DialMux(g.Addr(), time.Second); err != nil {
		t.Fatal(err)
	}
	for range k {
		id, err := r.mux.Open()
		if err != nil {
			t.Fatal(err)
		}
		r.ids = append(r.ids, id)
	}
	t.Cleanup(func() {
		r.mux.Close()
		g.Close()
	})
	return r
}

// send hands a session bits and returns once the gateway has applied
// them: the STATS behind the DATA on one connection is answered after it.
func (r *skipRig) send(t *testing.T, id uint32, bits bw.Bits) {
	t.Helper()
	if err := r.mux.Send(id, bits); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mux.Stats(id); err != nil {
		t.Fatal(err)
	}
}

// round runs the gateway's next round and waits for it to end.
func (r *skipRig) round() {
	n := r.g.now.Load()
	r.ticks.tick()
	waitRounds(r.g, n+1)
}

// calls lists how many rounds have asked each shard's policy.
func (r *skipRig) calls() []int64 {
	out := make([]int64, len(r.policy))
	for i, c := range r.policy {
		out[i] = c.calls.Load()
	}
	return out
}

// counters are the figures a round folds into the gateway's metrics.
func (r *skipRig) counters() [5]int64 {
	m := r.g.m
	return [5]int64{m.activeSlots.Value(), m.arrivedBits.Value(), m.servedBits.Value(), m.policedBits.Value(), m.allocChanges.Value()}
}

// TestQuietShardsSkipRounds: a gateway shard whose slots have no work
// and whose policy moves no rate before its next event skips its rounds
// — its lock and its policy untouched — and that is all it skips. On a
// served 4-shard gateway with every slot open, a burst into every
// session drains, after which untimed rounds pass without asking any
// policy. A DATA to one session of a quiet shard is served whole by the
// very next round, which asks that shard's policy and no other; a CLOSE
// on a quiet shard frees its slot, which an OPEN then takes. A twin
// gateway whose policies hide Next, so that no shard skips, runs the
// same script: after every round, active_slots, the bit counters and
// allocation_changes read the same on both.
func TestQuietShardsSkipRounds(t *testing.T) {
	skips, asks := newSkipRig(t, false), newSkipRig(t, true)
	rigs := []*skipRig{skips, asks}
	if !slices.Equal(skips.ids, asks.ids) {
		t.Fatalf("the twins seated their sessions apart: %v and %v", skips.ids, asks.ids)
	}
	shardOf := func(id uint32) int { return skips.g.shardOf(int(id)).idx }
	rounds := 0
	step := func() {
		t.Helper()
		for _, r := range rigs {
			r.round()
		}
		rounds++
		if a, b := skips.counters(), asks.counters(); a != b {
			t.Fatalf("round %d: skipping gateway's counters %v, asking one's %v (active, arrived, served, policed, changes)", rounds, a, b)
		}
		for i, n := range asks.calls() {
			if n != int64(rounds) {
				t.Fatalf("round %d: the policy hiding Next on shard %d was asked %d times", rounds, i, n)
			}
		}
	}
	// quietTick runs rounds until the next one is untimed and every
	// shard of the skipping gateway may skip it.
	quietTick := func() {
		t.Helper()
		for range 100 {
			next := bw.Tick(skips.g.now.Load())
			quiet := next%roundSampleEvery != 0
			for _, sh := range skips.g.shards {
				quiet = quiet && sh.quiet(next)
			}
			if quiet {
				return
			}
			step()
		}
		t.Fatal("no round in 100 had every shard quiet")
	}

	for _, id := range skips.ids {
		for _, r := range rigs {
			r.send(t, id, 40)
		}
	}
	for range 16 {
		step()
	}
	quietTick()
	before := skips.calls()
	step()
	if after := skips.calls(); !slices.Equal(after, before) {
		t.Errorf("a quiet round asked the policies: calls %v, then %v", before, after)
	}

	// A DATA to a quiet shard is served on the next round, by that shard.
	quietTick()
	id := skips.ids[len(skips.ids)/2]
	sh := shardOf(id)
	st, err := skips.mux.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rigs {
		r.send(t, id, 5)
	}
	before = skips.calls()
	step()
	after := skips.calls()
	for i := range after {
		if want := before[i] + int64(btoi(i == sh)); after[i] != want {
			t.Errorf("shard %d's policy was asked %d times by the round after a DATA to shard %d, want %d",
				i, after[i]-before[i], sh, want-before[i])
		}
	}
	if got, err := skips.mux.Stats(id); err != nil || got.Served != st.Served+5 || got.Queued != 0 {
		t.Errorf("the DATA's session: served %d more, %d queued (err %v); want 5 more served, none queued",
			got.Served-st.Served, got.Queued, err)
	}

	// A CLOSE on a quiet shard frees its slot.
	for range 8 {
		step()
	}
	quietTick()
	closed := skips.ids[0]
	for _, r := range rigs {
		if err := r.mux.CloseSession(closed); err != nil {
			t.Fatal(err)
		}
		s := r.g.shards[shardOf(closed)]
		s.mu.Lock()
		seated := s.slots.Seated(s.slot(int(closed)))
		s.mu.Unlock()
		if seated {
			t.Error("a CLOSE on a quiet shard left its slot seated")
		}
		if _, err := r.mux.Open(); err != nil {
			t.Errorf("an OPEN after the CLOSE on a full table: %v", err)
		}
	}
	for range 2 * roundSampleEvery {
		step()
	}
	if skipped := int64(rounds)*int64(len(skips.policy)) - sum(skips.calls()); skipped == 0 {
		t.Error("no shard round was skipped; the comparison checked nothing")
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sum(xs []int64) (n int64) {
	for _, x := range xs {
		n += x
	}
	return n
}
