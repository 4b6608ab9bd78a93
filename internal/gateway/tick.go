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
	"dynbw/internal/sim"
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
			g.m.ticks.Inc()
		}
	}
}

// inlineBelow is the number of slots with work, as far as the gateway
// knows before the round, under which the tick loop runs the round
// itself rather than wake the tick workers: waking two of them to visit
// eight shards costs about 2 µs and pays for itself only once the round
// has on the order of a thousand slots to serve (DESIGN.md §10 has the
// measurements). It is a constant, not a knob: it sits below every round
// the benchmark's 100k-slot workloads run fanned out.
const inlineBelow = 512

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
// will visit, as far as inlineBelow: an upper bound, read without a lock.
func (g *Gateway) knownWork() (n int64) {
	for _, sh := range g.shards {
		if n += sh.work.Load(); n >= inlineBelow {
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
// way: the shards' allotted bandwidth summed into the running peak
// Shutdown reports, and the round profile (whole-round and per-shard
// durations, the spread between the slowest and the fastest shard — the
// straggler cost of a join — a shard imbalance EWMA, and overruns of the
// configured tick budget).
func (g *Gateway) round(t bw.Tick) {
	start := time.Now()
	end := start
	if g.tickCh == nil || g.knownWork() < inlineBelow {
		// One shard's round ends where the next one's starts: a clock
		// read a shard, not two, which is a third of an idle round.
		for _, sh := range g.shards {
			end = g.shardRound(sh, t, end)
		}
		g.m.roundsInline.Inc()
	} else {
		g.tickWG.Add(len(g.shards))
		for i := range g.shards {
			g.tickCh <- i
		}
		g.tickWG.Wait()
		g.m.roundsFanout.Inc()
		end = time.Now()
	}
	round := end.Sub(start)
	var total bw.Rate
	for _, r := range g.roundRate {
		total += r
	}
	if total > g.maxTotalRate {
		g.maxTotalRate = total
	}
	g.m.tickRound.Observe(int64(round))
	if len(g.shards) > 1 {
		g.observeRoundSpread()
	}
	if g.tickBudget > 0 && round > g.tickBudget {
		g.m.tickOverruns.Inc()
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
	g.m.joinWait.Observe(maxD - minD)
	if mean := sum / int64(len(g.roundDur)); mean > 0 {
		cur := maxD * 1000 / mean
		g.imbalEwma += (cur - g.imbalEwma) / 8
		g.m.imbalance.Set(g.imbalEwma)
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
		g.shardRound(g.shards[idx], bw.Tick(g.now.Load()), time.Now())
		g.tickWG.Done()
	}
}

// shardRound runs one allocation round on one shard, started at start,
// folds the result into the shard's stripe of the gateway counters, and
// records the shard's round duration and allotted bandwidth (its tick
// histogram stripe; roundDur and roundRate for round's fold — the
// WaitGroup join orders a worker's writes before the reads). A shard with
// nothing to do reports zeros, which are not added. It returns when the
// shard's round ended.
func (g *Gateway) shardRound(sh *shard, t bw.Tick, start time.Time) time.Time {
	r, err := g.tickContained(sh, t)
	if err != nil {
		g.log.Log(slog.LevelError, "alloc", "gateway: allocator broke its contract; shard not served this round",
			"shard", sh.idx, "err", err)
	}
	if r.Active != 0 {
		g.m.arrivedBits.Add(sh.idx, int64(r.Arrived))
		g.m.servedBits.Add(sh.idx, int64(r.Served))
		g.m.policedBits.Add(sh.idx, int64(r.Policed))
	}
	if r.Changes != 0 { // a PHASE or a REDUCE moves rates on a round that visits no slot
		g.m.allocChanges.Add(sh.idx, int64(r.Changes))
	}
	g.m.activeSlots.Set(sh.idx, int64(r.Active))
	end := time.Now()
	d := int64(end.Sub(start))
	g.m.tickShard.Observe(sh.idx, d)
	g.roundDur[sh.idx] = d
	g.roundRate[sh.idx] = r.Total
	return end
}

// tickContained is sh.tick with a panic under it — the allocator's code
// runs there, on a tick worker or on the clock's own goroutine —
// contained to this shard's round, which is abandoned where it stood and
// reported as empty: queues and rates stay as the kernel left them, as
// for a contract violation, tick has unlocked the shard on its way out,
// and the clock and the other shards go on.
func (g *Gateway) tickContained(sh *shard, t bw.Tick) (r sim.Round, err error) {
	defer func() {
		if p := recover(); p != nil {
			g.m.roundPanics.Inc()
			g.log.Log(slog.LevelError, "panic-round", "gateway: allocation round panicked; the shard's round is abandoned",
				"shard", sh.idx, "tick", t, "panic", p, "stack", string(debug.Stack()))
		}
	}()
	return sh.tick(t)
}

// tick runs one allocation round over this shard's slots: one kernel
// step (sim.Slots.Step — the round the simulator verifies the theorems
// on) under the shard's allocator. The step visits the slots with
// pending or queued bits and no others, so the lock is held for as long
// as the busy sessions take.
//
// An allocator that breaks its contract (wrong rate count, negative
// rate) serves nothing this round — the arrivals stay queued and the
// rates stand — and the violation is returned for the caller to log
// outside the lock.
//
// On the way out the shard's work estimate becomes the slots the round
// left backlogged; the DATA applied from here to the next round adds to
// it. A round that panics stores nothing, and the estimate it started
// with still bounds the slots it leaves active.
func (sh *shard) tick(t bw.Tick) (sim.Round, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, err := sh.slots.Step(t, sh.alloc)
	sh.work.Store(int64(r.Backlogged))
	return r, err
}
