package gateway

import (
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/rng"
	"dynbw/internal/sim"
)

// newRounds builds a bare gateway — slot state, allocators, no listener —
// in the shape NewWithConfig gives a served one where rounds are
// concerned: a registry behind the counters and, with more than one
// shard, the tick workers running, so that a round takes whichever path
// its known work selects. Policies are the paper's, B_O = 16 a slot.
func newRounds(tb testing.TB, policy string, k, nshards int, do bw.Tick) *Gateway {
	tb.Helper()
	g := newGateway(k, nshards)
	g.m = newGWMetrics(obs.NewRegistry(), policy, nshards)
	for _, sh := range g.shards {
		sh.alloc = newPolicy(tb, policy, sh.n, bw.Rate(sh.n)*16, do)
	}
	g.startTickWorkers()
	// Stop the workers, unless a tick loop the test ran has. The cleanup
	// holds the two channels, not g: testing keeps a benchmark's last
	// cleanup reachable after it ran, and BenchmarkRound's live heap must
	// not count the gateway of the run before.
	done, tickCh := g.done, g.tickCh
	tb.Cleanup(func() {
		select {
		case <-done:
		default:
			if tickCh != nil {
				close(tickCh)
			}
		}
	})
	return g
}

// BenchmarkRound times Gateway.round alone — called directly, with none
// of the tick channel's ping-pong — on the table the benchmark's 100k
// workloads use: 100 000 slots over 8 shards, policy phased, registry
// attached. Before each round `active` sessions, spread evenly over the
// shards, receive a share's worth of bits, which the round serves whole:
// every round visits exactly that many slots and leaves none backlogged,
// so idle and active=40 run on the tick loop and the others fan out.
//
// drain is the shape of dense-100k's median round: a burst drained over
// rounds that receive nothing. Every drainCycle rounds, drainSlots slots
// drawn at random, one from each stretch of the table, receive
// drainCycle shares' worth of bits — half what a phase lets a session
// queue, so no session is raised and every one drains in drainCycle
// rounds. Only the drainCycle-1 rounds after the feeding one are timed,
// each visiting every drawn slot and nothing else, so a slot's cost is
// the cache lines its scattered state spans.
//
// burst is the shape of a whole dense-100k cycle: every burstCycle
// rounds — D_O, as there — every slot receives one seeded burst of 48 to
// 256 bits, which its share drains in 3 to 16 rounds (no phase raises
// it). The burstCycle-1 rounds after the feeding one are timed: a few
// with most of the table still draining, fewer and fewer slots, then
// idle ones. Besides the mean it reports the median and the 90th
// percentile of those rounds (p50_ns/round, p90_ns/round), the figures
// dense-100k's op_p50_us and its p90 round stand for; each round must
// visit exactly the slots whose burst its share has not yet drained.
// active=100000 is not this shape: there every slot arrives and drains
// every round.
//
// ns/round is the benchmark's own clock around every round it times. The
// gateway profiles one round in roundSampleEvery itself (those with
// t % 13 == 0, which read the clock once a shard and fill the tick
// histograms; the others read no clock), so the figure is the mean over
// both kinds in the proportion a running gateway pays them.
//
// The feeding (and drain's feeding round) is outside the ns/round figure
// and inside allocs/op, which is 0 once the round's scratch lists have
// grown to the active count. live_B/slot is the table's live heap, a
// slot's share: the slot state, the policies' and the round's scratch.
// It is measured on the first run of each -count (b.N = 1), when the
// gateway of the run before is garbage (newRounds), against a heap taken
// before any gateway was built, and reported with every run: a later
// run's baseline would count a gateway the run before left reachable.
func BenchmarkRound(b *testing.B) {
	const (
		k, nshards = 100_000, 8
		do         = bw.Tick(32)
		share      = 16 // bits a slot a round: B_O = 16 a slot
		drainCycle = 16
		drainSlots = 3500
		burstCycle = do
	)
	base := liveHeap()
	for _, bc := range []struct {
		name   string
		active int
		drain  bool
		burst  bool
	}{
		{"idle", 0, false, false},
		{"active=40", 40, false, false},
		{"active=1000", 1000, false, false},
		{"active=100000", 100_000, false, false},
		{"drain", drainSlots, true, false},
		{"burst", k, false, true},
	} {
		active := bc.active
		var perSlot float64
		b.Run(bc.name, func(b *testing.B) {
			g := newRounds(b, "phased", k, nshards, do)
			src := rng.New(37)
			var tick bw.Tick
			var spent time.Duration
			// visits[j] is how many slots the burst case's round j after
			// the feeding one must visit; times holds its timed rounds.
			var visits [burstCycle]int64
			var times []time.Duration
			round := func() time.Duration {
				start := time.Now()
				g.round(tick)
				took := time.Since(start)
				g.now.Add(1)
				tick++
				return took
			}
			// step runs one timed round and the feeding it needs.
			step := func() {
				want := int64(active)
				switch {
				case bc.burst:
					if tick%burstCycle == 0 {
						clear(visits[:])
						for i := 0; i < k; i++ {
							bits := 48 + src.Int64n(256-48+1)
							feed(g, i, bits)
							for j := int64(1); j < int64(burstCycle) && bits > j*share; j++ {
								visits[j]++
							}
						}
						round()
					}
					want = visits[tick%burstCycle]
				case !bc.drain:
					for j := 0; j < active; j++ {
						feed(g, j*(k/active), share)
					}
				case tick%drainCycle == 0:
					for j := 0; j < active; j++ {
						lo, hi := j*k/active, (j+1)*k/active
						feed(g, lo+src.Intn(hi-lo), drainCycle*share)
					}
					round()
				}
				took := round()
				spent += took
				if bc.burst && len(times) < cap(times) {
					times = append(times, took)
				}
				if got := g.m.activeSlots.Value(); got != want {
					b.Fatalf("round %d visited %d slots, want %d", tick-1, got, want)
				}
			}
			for tick < 80 {
				step()
			}
			spent = 0
			if bc.burst {
				times = make([]time.Duration, 0, b.N)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/round")
			if bc.burst {
				slices.Sort(times)
				b.ReportMetric(float64(times[len(times)/2].Nanoseconds()), "p50_ns/round")
				b.ReportMetric(float64(times[len(times)*9/10].Nanoseconds()), "p90_ns/round")
			}
			if b.N == 1 {
				perSlot = (float64(liveHeap()) - float64(base)) / k
			}
			b.ReportMetric(perSlot, "live_B/slot")
			inline, fanout := g.m.roundsInline.Value(), g.m.roundsFanout.Value()
			switch wantFanout := active >= inlineBelow; {
			case bc.burst:
				if inline == 0 || fanout == 0 { // the busy rounds fan out, the drained ones do not
					b.Errorf("%d rounds ran inline and %d fanned out; want both", inline, fanout)
				}
			case (fanout > 0) != wantFanout || (inline > 0) == wantFanout:
				b.Errorf("%d rounds ran inline and %d fanned out; want fan-out = %v", inline, fanout, wantFanout)
			}
		})
	}
}

// TestRoundAllocatesNothing: a whole allocation round — Gateway.round
// on a served gateway's shape (newRounds: registry attached, tick
// workers running), four shards — allocates nothing, timed or untimed,
// idle on the tick loop or fed inlineBelow slots and fanned out, with
// and without a tick budget. Each measured run is one sampling period,
// roundSampleEvery rounds holding exactly one timed round, so a single
// allocation in either kind of round reads as one a run.
func TestRoundAllocatesNothing(t *testing.T) {
	const (
		k, nshards = 4 * inlineBelow, 4
		do         = bw.Tick(8)
		share      = 16 // bits a slot a round: B_O = 16 a slot
		periods    = 2
	)
	for _, busy := range []int{0, inlineBelow} {
		for _, budget := range []time.Duration{0, time.Nanosecond} {
			t.Run(fmt.Sprintf("busy=%d/budget=%v", busy, budget), func(t *testing.T) {
				g := newRounds(t, "phased", k, nshards, do)
				g.tickBudget = budget
				tick := bw.Tick(0)
				period := func() {
					for range roundSampleEvery {
						for j := 0; j < busy; j++ {
							feed(g, j*(k/busy), share)
						}
						g.round(tick)
						g.now.Add(1)
						tick++
					}
				}
				period() // grows the round's scratch lists
				if avg := testing.AllocsPerRun(periods, period); avg != 0 {
					t.Errorf("%.2f allocations per %d rounds, want 0", avg, roundSampleEvery)
				}
				// AllocsPerRun runs the period once more to warm up.
				runs := int64(tick) / roundSampleEvery
				if h := g.m.tickRound.Snapshot(); h.Count() != runs {
					t.Errorf("%d rounds timed in %d, want %d", h.Count(), tick, runs)
				}
				inline, fanout := g.m.roundsInline.Value(), g.m.roundsFanout.Value()
				if wantFanout := busy >= inlineBelow; inline+fanout != int64(tick) || (fanout > 0) != wantFanout || (inline > 0) == wantFanout {
					t.Errorf("%d rounds inline, %d fanned out of %d; want fan-out = %v", inline, fanout, tick, wantFanout)
				}
			})
		}
	}
}

// panicsOn is an allocator that panics in place of its answer for the
// rounds [from, from+3), leaving the policy behind it untouched.
type panicsOn struct {
	sim.SparseAllocator
	from bw.Tick
}

func (a panicsOn) RatesActive(t bw.Tick, arrived []int32, bits []bw.Bits, applied []bw.Rate) ([]int32, []bw.Rate) {
	if t >= a.from && t < a.from+3 {
		panic(fmt.Sprintf("allocator bug at tick %d", t))
	}
	return a.SparseAllocator.RatesActive(t, arrived, bits, applied)
}

// TestRoundNoPanic: an allocator that panics costs its shard the rounds
// it panics in and nothing else. The real tick loop drives a gateway of
// one and of four shards, with a round's work below the inline threshold
// (the allocator runs on the clock's own goroutine) and above it (on a
// tick worker, four shards); shard 0's allocator panics three rounds
// running while bits are queued everywhere. The clock advances through
// all of it, the panics are counted and freeze the flight recorder, the
// shard is left unlocked, every
// other shard's sessions are served exactly what they sent — and so are
// shard 0's, once its allocator answers again, since an abandoned round
// keeps what the kernel had enqueued.
func TestRoundNoPanic(t *testing.T) {
	const (
		per    = 400 // slots a shard
		do     = bw.Tick(4)
		badAt  = bw.Tick(2)
		rounds = 12 * do
	)
	for _, nshards := range []int{1, 4} {
		for _, busy := range []int{40, per} { // sessions a shard that send: 40 or 160 a round, or 400 or 1600
			k := per * nshards
			fanned := nshards > 1 && busy*nshards >= inlineBelow
			t.Run(fmt.Sprintf("shards=%d/busy=%d", nshards, busy), func(t *testing.T) {
				g := newRounds(t, "phased", k, nshards, do)
				// The flight recorder as cmd/bwgateway arms it.
				reg := obs.NewRegistry()
				g.m = newGWMetrics(reg, "phased", nshards)
				rec := obs.NewRecorder(obs.RecorderConfig{Registry: reg, Triggers: []obs.Trigger{
					obs.GrowthTrigger("round-panic", `dynbw_gateway_panics_total{where="round"}`, 1)}})
				rec.Record()
				sh0 := g.shards[0]
				sh0.alloc = panicsOn{sh0.alloc, badAt}
				ticks := make(chan time.Time)
				g.ticks = ticks
				go g.tickLoop()
				sent := make([]bw.Bits, k)
				for tick := bw.Tick(0); tick < rounds; tick++ {
					if tick < 3*do {
						for _, sh := range g.shards {
							for i := 0; i < busy; i++ {
								feed(g, sh.base+i, 24)
								sent[sh.base+i] += 24
							}
						}
					}
					ticks <- time.Time{}
					for g.now.Load() != int64(tick)+1 { // the round is over: the next feed is the next round's
						runtime.Gosched()
					}
				}
				close(g.closing)
				<-g.done

				if got := g.m.roundPanics.Value(); got != 3 {
					t.Errorf("%d round panics counted, want 3", got)
				}
				rec.Record()
				if window, reason := rec.Frozen(); len(window) == 0 {
					t.Errorf("the flight recorder did not freeze on the panics (reason %q)", reason)
				}
				if in, out := g.m.roundsInline.Value(), g.m.roundsFanout.Value(); in+out != int64(rounds) || (out > 0) != fanned {
					t.Errorf("%d rounds inline, %d fanned out; want %d in all, fan-out = %v", in, out, rounds, fanned)
				}
				for _, s := range g.Sessions() { // takes every shard's lock
					if s.Served != sent[s.Slot] || s.Queued != 0 {
						t.Errorf("shard %d slot %d: served %d, queued %d, sent %d", s.Shard, s.Slot, s.Served, s.Queued, sent[s.Slot])
					}
				}
			})
		}
	}
}

// panicObserver is an Observer with a bug.
type panicObserver struct{}

func (panicObserver) Event(e obs.Event) { panic("observer bug on " + e.Type.String()) }

// TestHandlerNoPanic: a panic in a connection handler costs that
// connection and nothing else. Every seed of the fuzz corpus goes down
// its own connection to a gateway whose observer panics on any event, so
// each accepted OPEN and CLOSE brings its handler down: the process
// lives, the panics are counted, the handler's deferred exit has released
// the sessions the connection held and taken it off its shard's books,
// and the next connection is served.
func TestHandlerNoPanic(t *testing.T) {
	g := newBare(4)
	g.shardObs[0] = panicObserver{}
	sh := g.shards[0]
	for n, seed := range fuzzCorpus() {
		client, server := net.Pipe()
		drained := make(chan struct{})
		go func() {
			io.Copy(io.Discard, client) // replies, until the handler hangs up
			close(drained)
		}()
		before := g.m.handlerPanics.Value()
		sh.mu.Lock()
		sh.conns[server] = struct{}{} // as acceptLoop does
		sh.mu.Unlock()
		g.wg.Add(1)
		go g.handle(server, 0, 0)
		client.Write(seed) // fails halfway when the handler is already gone
		client.Close()
		g.wg.Wait()
		<-drained

		sh.mu.Lock()
		inUse, conns := sh.inUse, len(sh.conns)
		sh.mu.Unlock()
		if inUse != 0 || conns != 0 {
			t.Fatalf("seed %d: the handler left %d slots in use and %d connections on the shard", n, inUse, conns)
		}
		if opens := len(seed) > 0 && seed[0] == typeOpen; opens && g.m.handlerPanics.Value() != before+1 {
			t.Errorf("seed %d starts with an OPEN the observer panics on: %d handler panics counted, want 1",
				n, g.m.handlerPanics.Value()-before)
		}
	}
	if g.m.handlerPanics.Value() == 0 {
		t.Error("no handler panicked; the test exercised nothing")
	}
}

// healsOnWrite is a log sink that undoes TestHandlerLockedNoPanic's
// corruption, putting the shard's slots back: the handler's recover logs
// before it releases, and the release vacates the slot.
type healsOnWrite struct {
	sh    *shard
	slots sim.Slots
}

func (h healsOnWrite) Write(p []byte) (int, error) {
	h.sh.mu.Lock()
	h.sh.slots = h.slots
	h.sh.mu.Unlock()
	return len(p), nil
}

// TestHandlerLockedNoPanic: a handler that panics while it holds a shard
// lock gives the lock back. A shard whose slots are swapped for an empty
// table makes the slot access — which DATA, a BATCH's DATA and STATS each
// do under the lock — panic;
// the panic is counted, the handler's deferred exit (which takes the
// same lock) releases the connection's session, and the shard's next
// round and a second connection's exchange go through. Anything that
// would wait on a lock left held fails on the timeout instead.
func TestHandlerLockedNoPanic(t *testing.T) {
	within := func(t *testing.T, what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			f()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not finish: the shard lock was left held", what)
		}
	}
	// serve runs a handler on one end of a pipe and opens a session from
	// the other.
	serve := func(t *testing.T, g *Gateway) (client net.Conn, id uint64) {
		t.Helper()
		client, server := net.Pipe()
		sh := g.shards[0]
		sh.mu.Lock()
		sh.conns[server] = struct{}{} // as acceptLoop does
		sh.mu.Unlock()
		g.wg.Add(1)
		go g.handle(server, 0, 0)
		var opened [5]byte
		client.Write([]byte{typeOpen})
		if _, err := io.ReadFull(client, opened[:]); err != nil || opened[0] != typeOpened {
			t.Fatalf("OPEN: reply % x, err %v", opened, err)
		}
		return client, uint64(binary.BigEndian.Uint32(opened[1:]))
	}
	for _, tc := range []struct {
		name string
		msg  func(id uint64) []byte
	}{
		{"data", func(id uint64) []byte { return fuzzSeed(typeData, id, 8) }},
		{"batched-data", func(id uint64) []byte { return append([]byte{typeBatch, 0, 1}, fuzzSeed(typeData, id, 8)...) }},
		{"stats", func(id uint64) []byte { return fuzzSeed(typeStats, id) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newBare(4)
			sh := g.shards[0]
			g.log = obs.NewRateLimited(slog.New(slog.NewTextHandler(healsOnWrite{sh, sh.slots}, nil)), 0)

			client, id := serve(t, g)
			sh.mu.Lock()
			sh.slots = sim.Slots{} // every slot is out of range
			sh.mu.Unlock()
			within(t, "the panicking handler", func() {
				client.Write(tc.msg(id))
				io.Copy(io.Discard, client) // until the handler hangs up
				g.wg.Wait()
			})
			client.Close()
			if got := g.m.handlerPanics.Value(); got != 1 {
				t.Errorf("%d handler panics counted, want 1", got)
			}
			within(t, "the shard's next round", func() { sh.tick(0) })
			sh.mu.Lock()
			inUse, conns := sh.inUse, len(sh.conns)
			sh.mu.Unlock()
			if inUse != 0 || conns != 0 {
				t.Errorf("the handler left %d slots in use and %d connections on the shard", inUse, conns)
			}

			client, id = serve(t, g)
			within(t, "a second connection's exchange", func() {
				var reply [statsReplyLen]byte
				client.Write(append(fuzzSeed(typeData, id, 8), fuzzSeed(typeStats, id)...))
				if _, err := io.ReadFull(client, reply[:]); err != nil || reply[0] != typeStatsR {
					t.Errorf("STATS: reply % x, err %v", reply, err)
				}
				client.Close()
				g.wg.Wait()
			})
		})
	}
}
