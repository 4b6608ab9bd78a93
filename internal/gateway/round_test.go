package gateway

import (
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/rng"
	"dynbw/internal/sim"
	"dynbw/internal/traffic"
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
		sh.alloc = newPolicy(tb, policy, sh.slots.Len(), bw.Rate(sh.slots.Len())*16, do)
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
// drain is a burst drained over rounds that receive nothing. Every
// drainCycle rounds, drainSlots slots drawn at random, one from each
// stretch of the table, receive drainCycle shares' worth of bits — half
// what a phase lets a session queue, so no session is raised and every
// one drains in drainCycle rounds. Only the drainCycle-1 rounds after
// the feeding one are timed. Each counts every drawn slot as backlogged,
// and the kernel visits none of them but in the round their queues
// empty, the last: the others serve them by their drain lines and cost
// what the round's fixed work costs, on the tick loop.
//
// rerate is drain with a phase boundary in the middle of its lines:
// every D_O rounds, half a phase in, drainSlots slots — one from each
// stretch of the table, the next slot of the stretch each time —
// receive four phases' shares. At the boundary each one's regular queue
// is more than its share drains in a phase, so the policy raises its
// rate, and that round visits every fed slot for its rate change. (A
// slot comes round again after about 28 cycles, about when a stage
// RESET puts every share back: raised at most once before, it is raised
// again.) The gateway's known work counts no rate change, so the
// boundary round runs on the tick loop. Every round is timed. The boundary
// rounds' median is boundary_p50_ns/round and the rates they move, on
// average, boundary_moves/round, which must exceed what a round runs
// inline. The slots with work are not checked round by round here: the
// policy's raises set when each queue empties.
//
// burst is the shape of a whole dense-100k cycle: every burstCycle
// rounds — D_O, as there — every slot receives one seeded burst of 48 to
// 256 bits, which its share drains in 3 to 16 rounds (no phase raises
// it). The burstCycle-1 rounds after the feeding one are timed: a few
// with most of the table still draining, fewer and fewer slots, then
// idle ones; each round must count exactly the slots whose burst its
// share has not yet drained as having work. active=100000 is not this
// shape: there every slot arrives and drains every round.
//
// sparse is the same cycle over 1 % of the table, the shape of a whole
// sparse-100k cycle: every burstCycle rounds a rotating hundredth of the
// slots (every 100th, from an offset that moves by one each cycle) gets
// a burst drawn as sparse-100k draws them (sparseBursts: 16 to 256 bits,
// median 53), and the rest of the table idles. A burst drains within 16
// rounds, so about half of the timed rounds find every shard quiet and
// skip it.
//
// Besides the mean, drain, burst and sparse report the median and the
// 90th percentile of their timed rounds (p50_ns/round, p90_ns/round),
// the figures dense-100k's op_p50_us and its p90 round stand for, and
// burst and sparse the median of those of their timed rounds that have
// work (busy_p50_ns/round): about half of their rounds are idle, so
// their p50 falls at the boundary between busy and idle rounds, and a
// change to a busy round's cost shows in busy_p50 alone.
//
// Every round, timed or not, must take the path the gateway's known work
// selects: fanned out to the tick workers exactly when the slots fed
// since the last round and the slots the kernel lists as emptying in
// this one (sim.Slots.Completing), over all shards, reach inlineBelow.
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
		{"rerate", drainSlots, true, false},
		{"burst", k, false, true},
		{"sparse", k / 100, false, true},
	} {
		active := bc.active
		var perSlot float64
		b.Run(bc.name, func(b *testing.B) {
			g := newRounds(b, "phased", k, nshards, do)
			src := rng.New(37)
			var tick bw.Tick
			var spent time.Duration
			// visits[j] is how many slots the burst case's round j after
			// the feeding one must count as having work; times holds the
			// timed rounds of drain, burst and sparse, busy those of them
			// with work.
			var visits [burstCycle]int64
			var times, busy []time.Duration
			var sizes []bw.Bits // sparse's bursts, drawn in order
			drawn := 0
			if bc.name == "sparse" {
				sizes = sparseBursts(share, burstCycle)
			}
			// fed counts the slots fed since the last round, a shard;
			// boundary holds rerate's timed phase-boundary rounds.
			fed := make([]int, nshards)
			feedSlot := func(i int, bits bw.Bits) {
				feed(g, i, bits)
				fed[g.shardOf(i).idx]++
			}
			rerate := bc.name == "rerate"
			var boundary []time.Duration
			var rerated int64 // rates the timed boundary rounds moved
			round := func() time.Duration {
				known := 0
				for _, sh := range g.shards {
					known += fed[sh.idx] + sh.slots.Completing(tick)
				}
				fanned := g.m.roundsFanout.Value()
				start := time.Now()
				g.round(tick)
				took := time.Since(start)
				if got := g.m.roundsFanout.Value() > fanned; got != (known >= inlineBelow) {
					b.Fatalf("round %d fanned out = %v with %d slots fed and listed as emptying", tick, got, known)
				}
				g.now.Add(1)
				tick++
				clear(fed)
				return took
			}
			// step runs one timed round and the feeding it needs.
			step := func() {
				want := int64(active)
				switch {
				case bc.burst:
					if tick%burstCycle == 0 {
						clear(visits[:])
						stride := k / active
						for i := int(tick/burstCycle) % stride; i < k; i += stride {
							bits := 48 + src.Int64n(256-48+1)
							if sizes != nil {
								bits, drawn = sizes[drawn%len(sizes)], drawn+1
							}
							feedSlot(i, bits)
							for j := int64(1); j < int64(burstCycle) && bits > j*share; j++ {
								visits[j]++
							}
						}
						round()
					}
					want = visits[tick%burstCycle]
				case !bc.drain:
					for j := 0; j < active; j++ {
						feedSlot(j*(k/active), share)
					}
				case rerate && tick%do == do/2:
					for j := 0; j < active; j++ {
						lo, hi := j*k/active, (j+1)*k/active
						feedSlot(lo+int(tick/do)%(hi-lo), 4*bw.Volume(share, do))
					}
					round()
				case !rerate && tick%drainCycle == 0:
					for j := 0; j < active; j++ {
						lo, hi := j*k/active, (j+1)*k/active
						feedSlot(lo+src.Intn(hi-lo), drainCycle*share)
					}
					round()
				}
				atBoundary, changes := rerate && tick%do == 0, g.m.allocChanges.Value()
				took := round()
				if atBoundary {
					boundary, rerated = append(boundary, took), rerated+g.m.allocChanges.Value()-changes
				}
				spent += took
				if bc.burst || bc.drain {
					times = append(times, took)
					if want > 0 {
						busy = append(busy, took)
					}
				}
				if got := g.m.activeSlots.Value(); got != want && !rerate {
					b.Fatalf("round %d counted %d slots with work, want %d", tick-1, got, want)
				}
			}
			for tick < 80 {
				step()
			}
			spent = 0
			times, busy, boundary, rerated = make([]time.Duration, 0, b.N), make([]time.Duration, 0, b.N), boundary[:0], 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/round")
			quantile := func(d []time.Duration, q int) float64 {
				slices.Sort(d)
				return float64(d[len(d)*q/10].Nanoseconds())
			}
			if len(times) > 0 {
				b.ReportMetric(quantile(times, 5), "p50_ns/round")
				b.ReportMetric(quantile(times, 9), "p90_ns/round")
			}
			if bc.burst && len(busy) > 0 {
				b.ReportMetric(quantile(busy, 5), "busy_p50_ns/round")
			}
			if len(boundary) > 0 {
				moves := float64(rerated) / float64(len(boundary))
				b.ReportMetric(quantile(boundary, 5), "boundary_p50_ns/round")
				b.ReportMetric(moves, "boundary_moves/round")
				if moves < inlineBelow {
					b.Errorf("the boundary rounds moved %.0f rates each, want more than a round runs inline (%d)", moves, inlineBelow)
				}
			}
			if b.N == 1 {
				perSlot = (float64(liveHeap()) - float64(base)) / k
			}
			b.ReportMetric(perSlot, "live_B/slot")
			if inline, fanout := g.m.roundsInline.Value(), g.m.roundsFanout.Value(); bc.name == "drain" && (inline == 0 || fanout == 0) {
				b.Errorf("%d rounds ran inline and %d fanned out; want both", inline, fanout)
			}
		})
	}
}

// sparseBursts returns the burst sizes of the repository benchmark's
// manual-clock workloads (benchmarks/dynbench arrivalPool): a share a
// tick plus a heavy-tailed burst of at least two ticks' share, capped at
// what the share serves in half a cycle of do ticks.
func sparseBursts(share bw.Rate, do bw.Tick) []bw.Bits {
	src := traffic.Composite{Parts: []traffic.Generator{
		traffic.CBR{Rate: share},
		traffic.ParetoBurst{Seed: 37, Alpha: 1.5, MinBurst: bw.Volume(share, 2), MeanGap: 1, SpreadTicks: 1},
	}}
	return traffic.ClampTrace(src.Generate(4096), bw.RateOver(bw.Volume(share, do)/2, 1), 0).Arrivals()
}

// noStrayGateways fails the test while goroutines of a gateway an earlier
// test built — tick loops and tick workers, the goroutines that carry the
// "dynbw" pprof label — still run, listing them: testing.AllocsPerRun
// counts every goroutine's allocations, so a round measured beside them
// would be charged for theirs. A worker exits a moment after its
// gateway's Close or cleanup, so they get a few seconds to go.
func noStrayGateways(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var dump strings.Builder
		if err := pprof.Lookup("goroutine").WriteTo(&dump, 1); err != nil {
			t.Fatal(err)
		}
		var stray []string
		for _, g := range strings.Split(dump.String(), "\n\n") {
			if strings.Contains(g, `"dynbw":`) {
				stray = append(stray, g)
			}
		}
		if len(stray) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines of another gateway still run:\n%s", strings.Join(stray, "\n\n"))
		}
	}
}

// TestRoundAllocatesNothing: a whole allocation round — Gateway.round
// on a served gateway's shape (newRounds: registry attached, tick
// workers running), four shards — allocates nothing, timed or untimed,
// on the tick loop or fanned out, with and without a tick budget, and
// whichever shards it skips. The rows feed every round: nothing (idle,
// on the tick loop), 40 slots of shard 0 (on the tick loop), all
// inlineBelow slots of shard 0 (fanned out to one worker), or
// inlineBelow slots spread over the table (fanned out to all four). A
// shard with nothing fed must run only on the timed rounds and at its
// policy's phase boundaries, every D_O ticks, and skip the others; a fed
// shard runs every round (and every shard the round after the first,
// which moved every rate). Each measured run is one sampling period,
// roundSampleEvery rounds holding exactly one timed round, so a single
// allocation in either kind of round reads as one a run.
func TestRoundAllocatesNothing(t *testing.T) {
	noStrayGateways(t)
	const (
		k, nshards = 4 * inlineBelow, 4
		do         = bw.Tick(8)
		share      = 16 // bits a slot a round: B_O = 16 a slot
		periods    = 2
	)
	spread := make([]int, inlineBelow)
	for j := range spread {
		spread[j] = j * (k / inlineBelow)
	}
	shard0 := make([]int, inlineBelow) // k/nshards = inlineBelow: every slot of shard 0
	for j := range shard0 {
		shard0[j] = j
	}
	for _, row := range []struct {
		name   string
		fed    []int
		fanout bool
	}{
		{"busy=0", nil, false},
		{"busy=40,shard=0", shard0[:40], false},
		{"busy=512,shard=0", shard0, true},
		{"busy=512", spread, true},
	} {
		for _, budget := range []time.Duration{0, time.Nanosecond} {
			t.Run(fmt.Sprintf("%s/budget=%v", row.name, budget), func(t *testing.T) {
				g := newRounds(t, "phased", k, nshards, do)
				g.tickBudget = budget
				fed := make([]bool, nshards)
				for _, i := range row.fed {
					fed[g.shardOf(i).idx] = true
				}
				tick := bw.Tick(0)
				var ran, want [nshards]int64
				period := func() {
					for range roundSampleEvery {
						for _, i := range row.fed {
							feed(g, i, share)
						}
						for _, sh := range g.shards { // a round that runs the shard rewrites it
							sh.mu.Lock()
							sh.round.Active = -1
							sh.mu.Unlock()
						}
						g.round(tick)
						for i, sh := range g.shards {
							sh.mu.Lock()
							if sh.round.Active >= 0 {
								ran[i]++
							}
							sh.mu.Unlock()
							// Round 0 sets the stage's shares, a rate change, so
							// round 1 asks the policy again.
							if fed[i] || tick%roundSampleEvery == 0 || tick%do == 0 || tick == 1 {
								want[i]++
							}
						}
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
				if ran != want {
					t.Errorf("in %d rounds the shards ran %v times, want %v", tick, ran, want)
				}
				inline, fanout := g.m.roundsInline.Value(), g.m.roundsFanout.Value()
				if inline+fanout != int64(tick) || (fanout > 0) != row.fanout || (inline > 0) == row.fanout {
					t.Errorf("%d rounds inline, %d fanned out of %d; want fan-out = %v", inline, fanout, tick, row.fanout)
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
	for _, nshards := range []int{1, 4} {
		for _, busy := range []int{40, panicPer} {
			t.Run(fmt.Sprintf("shards=%d/busy=%d", nshards, busy), func(t *testing.T) {
				roundsWithPanics(t, nshards, busy, 3*panicDO)
			})
		}
	}
}

// TestRoundPanicOnLastArrivals: as TestRoundNoPanic, but the sessions'
// last bits arrive in the last round that panics, so no later arrival
// visits their slots again. The rounds after it still serve every bit:
// the served-bits counter adds up to what was sent, and every shard ends
// with no work and no active slot, free to go quiet.
func TestRoundPanicOnLastArrivals(t *testing.T) {
	for _, nshards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) {
			g, sent := roundsWithPanics(t, nshards, panicPer, panicAt+3)
			var want bw.Bits
			for _, b := range sent {
				want += b
			}
			if got := g.m.servedBits.Value(); got != int64(want) {
				t.Errorf("served-bits counter %d, %d bits sent", got, want)
			}
			for _, sh := range g.shards {
				if w := sh.work.Load(); w != 0 {
					t.Errorf("shard %d: work %d after the drain", sh.idx, w)
				}
			}
			if got := g.m.activeSlots.Value(); got != 0 {
				t.Errorf("%d active slots after the drain", got)
			}
		})
	}
}

const (
	panicPer = 400 // slots a shard
	panicDO  = bw.Tick(4)
	panicAt  = bw.Tick(2) // shard 0's allocator panics at this tick and the two after it
)

// roundsWithPanics runs 12·D_O rounds of a phased gateway of nshards
// shards of panicPer slots whose shard 0 allocator panics at panicAt and
// the two rounds after it. Each round before feedUntil, busy sessions a
// shard send 24 bits. It checks what TestRoundNoPanic describes and
// returns the closed gateway and the bits each slot was sent.
func roundsWithPanics(t *testing.T, nshards, busy int, feedUntil bw.Tick) (*Gateway, []bw.Bits) {
	const rounds = 12 * panicDO
	k := panicPer * nshards
	fanned := nshards > 1 && busy*nshards >= inlineBelow
	g := newRounds(t, "phased", k, nshards, panicDO)
	// The flight recorder as cmd/bwgateway arms it.
	reg := obs.NewRegistry()
	g.m = newGWMetrics(reg, "phased", nshards)
	rec := obs.NewRecorder(obs.RecorderConfig{Registry: reg, Triggers: []obs.Trigger{
		{Name: "round-panic", Key: `dynbw_gateway_panics_total{where="round"}`}}})
	rec.Record()
	sh0 := g.shards[0]
	sh0.alloc = panicsOn{sh0.alloc, panicAt}
	ticks := make(chan time.Time)
	g.ticks = ticks
	go g.tickLoop()
	sent := make([]bw.Bits, k)
	for tick := bw.Tick(0); tick < rounds; tick++ {
		if tick < feedUntil {
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
	return g, sent
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
		inUse, conns := sh.slots.Tenants(), len(sh.conns)
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
			inUse, conns := sh.slots.Tenants(), len(sh.conns)
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
