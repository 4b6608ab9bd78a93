package gateway

import (
	"context"
	"fmt"
	"log/slog"
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

// round runs the allocation round for tick t on every shard — inline
// without tick workers (the single-shard gateway), else fanned out and
// joined — then folds the joined result: the shards' allotted bandwidth
// summed into the running peak Shutdown reports, and the round profile
// (whole-round and per-shard durations, the join wait — slowest minus
// fastest shard, the straggler cost — a shard imbalance EWMA, and
// overruns of the configured tick budget).
func (g *Gateway) round(t bw.Tick) {
	start := time.Now()
	if g.tickCh == nil {
		for _, sh := range g.shards {
			g.shardRound(sh, t)
		}
	} else {
		g.tickWG.Add(len(g.shards))
		for i := range g.shards {
			g.tickCh <- i
		}
		g.tickWG.Wait()
	}
	round := time.Since(start)
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

// observeRoundSpread folds the just-joined round's per-shard durations
// (roundDur, ordered by the tickWG join) into the straggler histogram
// and the imbalance gauge. The imbalance is an EWMA (alpha = 1/8) of
// max/mean in permille: 1000 means perfectly balanced shards, 2000 means
// the slowest shard takes twice the mean — resharding or slot-placement
// trouble.
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
		g.shardRound(g.shards[idx], bw.Tick(g.now.Load()))
		g.tickWG.Done()
	}
}

// shardRound runs one allocation round on one shard, folds the result
// into the shard's stripe of the gateway counters, and records the
// shard's round duration and allotted bandwidth (its tick histogram
// stripe; roundDur and roundRate for round's fold — the WaitGroup join
// orders those writes before the reads).
func (g *Gateway) shardRound(sh *shard, t bw.Tick) {
	start := time.Now()
	r, err := sh.tick(t)
	if err != nil {
		g.log.Log(slog.LevelError, "alloc", "gateway: allocator broke its contract; link not served this round",
			"shard", sh.idx, "err", err)
	}
	g.m.arrivedBits.Add(sh.idx, int64(r.Arrived))
	g.m.servedBits.Add(sh.idx, int64(r.Served))
	g.m.allocChanges.Add(sh.idx, int64(r.Changes))
	g.m.policedBits.Add(sh.idx, int64(r.Policed))
	g.m.activeSlots.Set(sh.idx, int64(r.Active))
	d := int64(time.Since(start))
	g.m.tickShard.Observe(sh.idx, d)
	g.roundDur[sh.idx] = d
	g.roundRate[sh.idx] = r.Total
}

// tick runs one allocation round over this shard's slots: one kernel
// step (sim.Slots.Step — the round the simulator verifies the theorems
// on) per link, each link's allocator seeing only its own slot range,
// summed into one Round. The step visits the slots with pending or
// queued bits and no others, so the lock is held for as long as the busy
// sessions take. In multi-link mode (one shard, several links)
// every rebalEvery ticks a rebalance pass may then migrate sessions
// between links.
//
// A link whose allocator breaks its contract (wrong rate count, negative
// rate) is served nothing this round — its arrivals stay queued and its
// rates stand — and the first such violation is returned for the caller
// to log outside the lock.
//
// bwlint:hotpath
func (sh *shard) tick(t bw.Tick) (sum sim.Round, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for l, alloc := range sh.allocs {
		r, lerr := sh.links[l].Step(t, alloc)
		if lerr != nil && err == nil {
			err = fmt.Errorf("link %d: %w", l, lerr) // bwlint:allocok cold: allocator contract violation
		}
		sum.Arrived += r.Arrived
		sum.Served += r.Served
		sum.Policed += r.Policed
		sum.Total += r.Total
		sum.Changes += r.Changes
		sum.Active += r.Active
	}
	if sh.g.rebalEvery > 0 && t > 0 && t%sh.g.rebalEvery == 0 {
		sh.rebalance()
	}
	return sum, err
}
