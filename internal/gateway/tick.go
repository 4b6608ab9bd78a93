package gateway

import (
	"context"
	"log/slog"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"time"

	"dynbw/internal/bw"
)

// tickLoop owns the gateway clock: each received tick runs one
// allocation round and then advances now, so every shard computes rates
// for the same tick t and the cost measure is identical to the
// single-lock gateway's.
func (g *Gateway) tickLoop() {
	defer close(g.done)
	if g.tickCh != nil {
		defer close(g.tickCh)
	}
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("dynbw", "tick-loop")))
	for {
		select {
		case <-g.closing:
			return
		case <-g.ticks:
			g.round(bw.Tick(g.now.Load()))
			g.now.Add(1)
			g.m.ticks.Inc(0)
		}
	}
}

// inlineBelow is the number of slots the round will visit, as far as the
// gateway knows before it, under which the tick loop runs the round
// itself rather than wake the tick workers: waking two of them to visit
// eight shards costs about 2 µs and pays for itself only once the round
// has on the order of a thousand slots to serve (DESIGN.md §10 has the
// measurements). It is a constant, not a knob.
const inlineBelow = 512

// roundSampleEvery is the period of the round profile: the rounds with
// t % roundSampleEvery == 0 are timed, on either path, and the others
// read no clock and observe no histogram, as the wire path times 1
// message in its sampling period. Every counter stays exact. Clock reads
// and histogram observations were most of an idle round's cost
// (DESIGN.md §10). The period is prime, so a load that repeats every D_O
// ticks (a power of two in every workload here) is timed at every phase
// of its cycle, and short enough that any 13 consecutive rounds hold a
// timed one: the shortest window the repository benchmark reads the
// profile over is 22 rounds of a 5 ms clock. It is a constant, not a
// knob, like inlineBelow.
const roundSampleEvery = 13

// startTickWorkers starts the pool that rounds with inlineBelow slots of
// work or more fan out to, one worker per core up to one per shard. A
// gateway of one shard has no use for it; one whose workers were never
// started runs every round inline.
func (g *Gateway) startTickWorkers() {
	if len(g.shards) == 1 {
		return
	}
	g.tickCh = make(chan int, len(g.shards))
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(g.shards)); w++ {
		go g.tickWorker(w)
	}
}

// knownWork adds up the shards' estimates of the slots the coming round
// will visit, as far as inlineBelow, read without a lock. A shard's is
// its DATA applied since its last round and the slots the kernel lists
// as emptying in this one; a backlogged slot that only drains is served
// without a visit, so a round whose backlogs drain and few of them empty
// runs on the tick loop. The slots whose rate the round moves are not
// counted, though the kernel visits each of them: no estimate is at hand
// before the allocator answers. A phase boundary that raises thousands
// of draining slots with no DATA before it therefore runs inline, at
// about twice the cost of a fanned-out round (BenchmarkRound/rerate,
// DESIGN.md §10).
func (g *Gateway) knownWork() (n int64) {
	for _, sh := range g.shards {
		if n += sh.work.Load() - sh.pass; n >= inlineBelow {
			break
		}
	}
	return n
}

// round runs the allocation round for tick t on every shard and then
// folds the result. A round the gateway knows to be small — fewer than
// inlineBelow slots with work over all shards, which an idle gateway's
// every round is — and every round of a gateway without tick workers
// (one shard) runs on the tick loop itself, shard after shard; any other
// is fanned out to the workers and joined. The fold is the same either
// way: each shard folds its counters as its round ends (shard.tick), and
// the shards' allotted bandwidth is summed into the running peak
// Shutdown reports. A timed round (one in roundSampleEvery) adds the
// round profile: whole-round and per-shard durations, the spread between
// the slowest and the fastest shard — the straggler cost of a join — and
// a shard imbalance EWMA. Every round is checked against the configured
// tick budget, which is the only clock an untimed round reads.
//
// An untimed round skips every quiet shard (shard.quiet: no work, and a
// policy that moves no rate before the tick the kernel named) on either
// path: no lock, no Step, nothing sent to a worker. Its round would
// report what the last one did — nothing visited, no rate moved, the
// same total — so the fold is unchanged. A timed round runs every shard,
// so the round profile keeps measuring what a shard's round costs.
func (g *Gateway) round(t bw.Tick) {
	g.timed = t%roundSampleEvery == 0
	var start time.Time
	if g.timed || g.tickBudget > 0 {
		start = time.Now()
	}
	end := start
	if g.tickCh == nil || g.knownWork() < inlineBelow {
		// Timed, one shard's round ends where the next one's starts: a
		// clock read a shard, not two.
		for _, sh := range g.shards {
			if !g.timed && sh.quiet(t) {
				continue
			}
			end = g.shardRound(sh, t, end)
		}
		g.m.roundsInline.Inc(0)
	} else {
		g.fanned = g.fanned[:0]
		for i, sh := range g.shards {
			if g.timed || !sh.quiet(t) {
				g.fanned = append(g.fanned, i)
			}
		}
		g.tickWG.Add(len(g.fanned))
		for _, i := range g.fanned {
			g.tickCh <- i
		}
		g.tickWG.Wait()
		g.m.roundsFanout.Inc(0)
		if g.timed {
			end = time.Now()
		}
	}
	var total bw.Rate
	for _, r := range g.roundRate {
		total += r
	}
	if total > g.maxTotalRate {
		g.maxTotalRate = total
	}
	var round time.Duration
	if g.timed {
		round = end.Sub(start)
		g.m.tickRound.Observe(0, int64(round))
		if len(g.shards) > 1 {
			g.observeRoundSpread()
		}
	} else if g.tickBudget > 0 {
		round = time.Since(start)
	}
	if g.tickBudget > 0 && round > g.tickBudget {
		g.m.tickOverruns.Inc(0)
	}
}

// observeRoundSpread folds the finished round's per-shard durations
// (roundDur; a fanned-out round's are ordered by the tickWG join) into
// the straggler histogram and the imbalance gauge. The imbalance is an
// EWMA (alpha = 1/8) of max/mean in permille: 1000 means perfectly
// balanced shards, 2000 means the slowest shard takes twice the mean —
// resharding or slot-placement trouble.
func (g *Gateway) observeRoundSpread() {
	minD, maxD, sum := g.roundDur[0], g.roundDur[0], int64(0)
	for _, d := range g.roundDur {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
		sum += d
	}
	g.m.joinWait.Observe(0, maxD-minD)
	if mean := sum / int64(len(g.roundDur)); mean > 0 {
		cur := maxD * 1000 / mean
		g.imbalEwma += (cur - g.imbalEwma) / 8
		g.m.imbalance.Set(0, g.imbalEwma)
	}
}

// tickWorker drains shard indices off tickCh, running one shard's
// allocation round per index. Workers are started once at construction
// (capped at GOMAXPROCS) and exit when the tick loop closes the channel.
// Each index is sent exactly once per round, so no two workers ever
// process the same shard concurrently. Workers carry pprof goroutine
// labels so CPU and goroutine profiles separate allocation work from
// connection handlers.
func (g *Gateway) tickWorker(w int) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("dynbw", "tick-worker", "worker", strconv.Itoa(w))))
	for idx := range g.tickCh {
		var start time.Time
		if g.timed {
			start = time.Now()
		}
		g.shardRound(g.shards[idx], bw.Tick(g.now.Load()), start)
		g.tickWG.Done()
	}
}

// shardRound runs one allocation round on one shard, started at start.
// Untimed, that is all, and it returns start. Timed, it records the
// shard's round duration (its tick histogram stripe, and roundDur for
// round's fold — the WaitGroup join orders a worker's writes before the
// reads) and returns when the round ended.
func (g *Gateway) shardRound(sh *shard, t bw.Tick, start time.Time) time.Time {
	if err := g.tickContained(sh, t); err != nil {
		g.log.Log(slog.LevelError, "alloc", "gateway: allocator broke its contract; shard not served this round",
			"shard", sh.idx, "err", err)
	}
	if !g.timed {
		return start
	}
	end := time.Now()
	d := int64(end.Sub(start))
	g.m.tickShard.Observe(sh.idx, d)
	g.roundDur[sh.idx] = d
	return end
}

// tickContained is sh.tick with a panic under it — the allocator's code
// runs there, on a tick worker or on the clock's own goroutine —
// contained to this shard's round, which is abandoned where it stood and
// folds nothing: queues and rates stay as the kernel left them, as for a
// contract violation, the shard's gauges keep the last round's figures,
// tick has unlocked the shard on its way out, and the clock and the
// other shards go on.
func (g *Gateway) tickContained(sh *shard, t bw.Tick) (err error) {
	defer func() {
		if p := recover(); p != nil {
			g.m.roundPanics.Inc(0)
			g.log.Log(slog.LevelError, "panic-round", "gateway: allocation round panicked; the shard's round is abandoned",
				"shard", sh.idx, "tick", t, "panic", p, "stack", string(debug.Stack()))
		}
	}()
	return sh.tick(t)
}

// tick runs one allocation round over this shard's slots: one kernel
// step (sim.Slots.Step — the round the simulator verifies the theorems
// on) under the shard's allocator, into the shard's own Round. The step
// visits the slots with arrivals, a moved rate or a queue that empties,
// and no others, so the lock is held for as long as those take.
//
// An allocator that breaks its contract (wrong rate count, negative
// rate) serves nothing this round — the arrivals stay queued and the
// rates stand — and the violation is returned for the caller to log
// outside the lock.
//
// Before it unlocks, tick folds the round into the shard's stripe of the
// gateway counters (a shard with nothing to do reports zeros, which are
// not added), its allotted bandwidth into roundRate, and the shard's
// work estimate becomes the slots the round left backlogged; the DATA
// applied from here to the next round adds to it. pass becomes those of
// them the next round does not visit. due becomes the round's
// Round.Due, the tick before which the round loop may skip the shard
// while its estimate reads 0, or the next tick after a round with work,
// so that the shard's gauges read a round with none before it is
// skipped. A round that panics stores nothing, and the estimate and due
// it started with still bound the slots it leaves with work and the
// tick it must run again.
func (sh *shard) tick(t bw.Tick) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := &sh.round
	err := sh.slots.Step(t, sh.alloc, r)
	sh.work.Store(int64(r.Backlogged))
	sh.pass = int64(r.Backlogged - sh.slots.Completing(t+1))
	sh.due = r.Due
	if r.Active != 0 {
		sh.due = t + 1 // the next round runs, if only to report the work gone
	}
	m := sh.g.m
	if r.Active != 0 {
		m.arrivedBits.Add(sh.idx, int64(r.Arrived))
		m.servedBits.Add(sh.idx, int64(r.Served))
		m.policedBits.Add(sh.idx, int64(r.Policed))
	}
	if r.Changes != 0 { // a PHASE or a REDUCE moves rates on a round that visits no slot
		m.allocChanges.Add(sh.idx, int64(r.Changes))
	}
	m.activeSlots.Set(sh.idx, int64(r.Active))
	sh.g.roundRate[sh.idx] = r.Total
	return err
}
