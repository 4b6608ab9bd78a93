package main

import (
	"context"
	"runtime"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/load"
	"dynbw/internal/queue"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
)

// perLayer is what the traced pass reports. Layers are this repository's
// modules. A workload reports the gateway and obs metrics it reaches
// (workload.measures); those of core, queue, bw and sim do not depend on
// the workload and come from the layers section, once per invocation.
// benchmarks/README.md says which end-to-end metric each of these should
// move, and on which workload.
var perLayer = []metricDef{
	// internal/gateway, wire path: the child's Gateway.Profile() over
	// the traced phase, its CPU and allocation per message, and the
	// client's side of the same exchanges from the benchmark's spans.
	{"gateway.wire.read_p50_ns", "ns"},
	{"gateway.wire.read_p99_ns", "ns"},
	{"gateway.wire.dispatch_p50_ns", "ns"},
	{"gateway.wire.dispatch_p99_ns", "ns"},
	{"gateway.wire.apply_p50_ns", "ns"},
	{"gateway.wire.apply_p99_ns", "ns"},
	{"gateway.wire.write_p50_ns", "ns"},
	{"gateway.wire.write_p99_ns", "ns"},
	{"gateway.wire.exchange_p50_ns", "ns"},
	{"gateway.wire.exchange_p99_ns", "ns"},
	{"gateway.cpu_us_per_msg", "us"},
	{"gateway.alloc_b_per_msg", "B"},
	{"gateway.mux.send_ns_per_msg", "ns"},
	{"gateway.mux.stats_rtt_p50_us", "us"},
	{"gateway.rtt_p99_us", "us"},
	// internal/gateway, allocation round.
	{"gateway.tick.ns_per_slot", "ns"},
	{"gateway.tick.round_p99_us", "us"},
	{"gateway.tick.alloc_b_per_round", "B"},
	{"gateway.tick.shard_p50_us", "us"},
	{"gateway.tick.join_wait_p50_us", "us"},
	{"gateway.tick.missed", "count"},
	{"gateway.tick.self_ns_per_slot", "ns"},
	{"gateway.gc_pause_ms_per_s", "ms/s"},
	// internal/gateway, slot table.
	{"gateway.table.open_p50_us", "us"},
	{"gateway.table.open_last_decile_p50_us", "us"},
	// internal/core, internal/queue, internal/bw and internal/sim, driven
	// directly over one shard's worth of slots.
	{"core.phased.rates_ns_per_slot-sparse", "ns"},
	{"core.phased.rates_ns_per_slot-dense", "ns"},
	{"core.continuous.rates_ns_per_slot-sparse", "ns"},
	{"core.continuous.rates_ns_per_slot-dense", "ns"},
	{"core.combined.rates_ns_per_slot-sparse", "ns"},
	{"core.combined.rates_ns_per_slot-dense", "ns"},
	{"core.phased.rates_alloc_b_per_call", "B"},
	{"core.continuous.rates_alloc_b_per_call", "B"},
	{"core.combined.rates_alloc_b_per_call", "B"},
	{"queue.push_serve_ns_per_slot-sparse", "ns"},
	{"queue.push_serve_ns_per_slot-dense", "ns"},
	{"queue.bytes_per_fifo", "B"},
	{"bw.sched_set_ns_per_slot", "ns"},
	{"bw.sched_bytes_per_slot", "B"},
	{"sim.step_ns_per_slot.phased", "ns"},
	{"sim.step_ns_per_slot.continuous", "ns"},
	{"sim.step_ns_per_slot.combined", "ns"},
	{"sim.alloc_b_per_run", "B"},
	// internal/obs: what the registry, and a span for every message,
	// add to one message of the closed loop.
	{"obs.metrics_ns_per_msg", "ns"},
	{"obs.spans_ns_per_msg", "ns"},
	// The benchmark's own spans.
	{"bench.trace_overhead_pct", "%"},
}

const (
	// layerSlots is one shard of the 100k-slot gateways.
	layerSlots = 12500
	layerTicks = bw.Tick(512)
	layerDO    = bw.Tick(32)
)

// layerArrivals fills arrived with the sparse or dense pattern's
// arrivals at tick t: every D_O ticks a burst lands on the cycle's group
// of sessions, 1 % of them rotating (sparse) or all of them (dense) —
// the arrival matrices of the sparse-100k and dense-100k workloads.
func layerArrivals(arrived []bw.Bits, pool []bw.Bits, t bw.Tick, activePct int) {
	for i := range arrived {
		arrived[i] = 0
	}
	if t%layerDO != 0 {
		return
	}
	cycle := int(t / layerDO)
	groups := 100 / activePct
	for i := cycle % groups; i < len(arrived); i += groups {
		arrived[i] = pool[(i+cycle)%len(pool)]
	}
}

var layerPatterns = []struct {
	name      string
	activePct int
}{{"sparse", 1}, {"dense", 100}}

// layersSection drives the arrival matrices straight through
// MultiAllocator.Rates, FIFO.Push/Bits/Serve, Schedule.Set and
// MultiRunner.Run, a span around each call, and reduces the spans to
// per-slot costs. No workload is involved, so the traced pass runs it
// once and reports it as a result of its own.
func layersSection(o runOpts) (Result, spanFile, error) {
	res := newResult(layersName, true)
	tr := newTracer(time.Now())
	if err := driveLayers(o, tr, res.Metrics); err != nil {
		return res, spanFile{}, err
	}
	file := collect(layersName, tr)
	for _, c := range file.Totals {
		res.Attempted += int(c.Count) // every timed call; one that fails ends the section
	}
	return res, file, nil
}

func driveLayers(o runOpts, tr *tracer, out map[string]Metric) error {
	slots, ticks := layerSize(o)
	pool := arrivalPool(workload{kind: kindRounds, do: layerDO}, o.seed)
	arrived := make([]bw.Bits, slots)
	queued := make([]bw.Bits, slots)
	perSlot := func(span string) Metric {
		s := total(span, tr)
		return one(float64(s.SumNs)/(float64(slots)*float64(ticks)), "ns", int(s.Count))
	}
	for _, pat := range layerPatterns {
		for _, policy := range simPolicies {
			alloc, err := load.NewPolicy(policy, slots, bw.Rate(slots)*share, layerDO)
			if err != nil {
				return err
			}
			queues := make([]queue.FIFO, slots)
			scheds := make([]bw.Schedule, slots)
			suffix := " " + policy + "-" + pat.name
			for t := bw.Tick(0); t < ticks; t++ {
				layerArrivals(arrived, pool, t, pat.activePct)
				id := uint64(t)
				step := tr.start("step"+suffix, id, -1)
				h := tr.start("FIFO.Push+Bits"+suffix, id, step)
				for i := range queues {
					queues[i].Push(t, arrived[i])
					queued[i] = queues[i].Bits()
				}
				tr.end(h)
				h = tr.start("Rates"+suffix, id, step)
				rates := alloc.Rates(t, arrived, queued)
				tr.end(h)
				h = tr.start("Schedule.Set"+suffix, id, step)
				for i := range scheds {
					scheds[i].Set(t, rates[i])
				}
				tr.end(h)
				h = tr.start("FIFO.Serve"+suffix, id, step)
				for i := range queues {
					queues[i].Serve(t, rates[i])
				}
				tr.end(h)
				tr.end(step)
			}
			out["core."+policy+".rates_ns_per_slot-"+pat.name] = perSlot("Rates" + suffix)
			if pat.name == "dense" {
				// Nothing but Rates runs between the two readings.
				const calls = 32
				before := totalAlloc()
				for i := 0; i < calls; i++ {
					alloc.Rates(ticks+bw.Tick(i), arrived, queued)
				}
				out["core."+policy+".rates_alloc_b_per_call"] = one(float64(totalAlloc()-before)/calls, "B", calls)
			}
			if policy == "phased" {
				// The queues and schedules see the hosted policy's rates.
				push, serve := perSlot("FIFO.Push+Bits"+suffix), perSlot("FIFO.Serve"+suffix)
				out["queue.push_serve_ns_per_slot-"+pat.name] = one(push.Value+serve.Value, "ns", push.Samples+serve.Samples)
				if pat.name == "dense" {
					out["bw.sched_set_ns_per_slot"] = perSlot("Schedule.Set" + suffix)
				}
			}
		}
	}

	// Live bytes of one FIFO holding one chunk and of one Schedule
	// holding one segment, as a gateway slot has after its first burst.
	before := liveHeap()
	queues := make([]queue.FIFO, slots)
	for i := range queues {
		queues[i].Push(0, 1)
	}
	out["queue.bytes_per_fifo"] = one(float64(liveHeap()-before)/float64(slots), "B", slots)
	runtime.KeepAlive(queues)
	before = liveHeap()
	scheds := make([]*bw.Schedule, slots)
	for i := range scheds {
		scheds[i] = &bw.Schedule{}
		scheds[i].Set(0, 1)
	}
	out["bw.sched_bytes_per_slot"] = one(float64(liveHeap()-before)/float64(slots), "B", slots)
	runtime.KeepAlive(scheds)

	// The simulator's whole step on the dense matrix.
	sessions := make([][]bw.Bits, slots)
	for i := range sessions {
		sessions[i] = make([]bw.Bits, ticks)
	}
	for t := bw.Tick(0); t < ticks; t++ {
		layerArrivals(arrived, pool, t, 100)
		for i, a := range arrived {
			sessions[i][t] = a
		}
	}
	traces := make([]*trace.Trace, slots)
	for i := range traces {
		traces[i] = trace.MustNew(sessions[i])
	}
	multi := trace.MustNewMulti(traces)
	runner := sim.NewMultiRunner()
	for i, policy := range simPolicies {
		alloc, err := load.NewPolicy(policy, slots, bw.Rate(slots)*share, layerDO)
		if err != nil {
			return err
		}
		name := "MultiRunner.Run " + policy
		before := totalAlloc()
		h := tr.start(name, uint64(i), -1)
		res, err := runner.Run(multi, alloc, sim.Options{})
		tr.end(h)
		if err != nil {
			return err
		}
		s := total(name, tr)
		out["sim.step_ns_per_slot."+policy] = one(float64(s.SumNs)/(float64(slots)*float64(res.Total.Len())), "ns", 1)
		if i == len(simPolicies)-1 {
			// The last run finds the runner's storage grown by the others.
			out["sim.alloc_b_per_run"] = one(float64(totalAlloc()-before), "B", 1)
		}
	}
	return nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeap is the process's live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setSelfTime fills in gateway.tick.self_ns_per_slot: what a slot costs a
// shard in a round, less what Rates, the queue and Schedule.Set cost a
// slot in the layers section on the workload's own arrival pattern. What
// is left is the gateway's own loop, lock and bookkeeping.
func setSelfTime(w workload, res *Result, layers Result) {
	ns, ok := res.Metrics["gateway.tick.ns_per_slot"]
	if !ok {
		return
	}
	pattern := "dense"
	if w.kind == kindRounds && w.activePct < 100 {
		pattern = "sparse"
	}
	children := layers.Metrics["core.phased.rates_ns_per_slot-"+pattern].Value +
		layers.Metrics["queue.push_serve_ns_per_slot-"+pattern].Value +
		layers.Metrics["bw.sched_set_ns_per_slot"].Value
	res.Metrics["gateway.tick.self_ns_per_slot"] = one(ns.Value-children, "ns", ns.Samples)
}

// overheadPct is how much slower the traced phase completed work than
// the untraced reference phase on the same set-up, in percent.
func overheadPct(ref, traced phaseStats) Metric {
	if ref.seconds == 0 || traced.seconds == 0 || ref.units == 0 {
		return Metric{Unit: "%"}
	}
	r, t := ref.units/ref.seconds, traced.units/traced.seconds
	return one(100*(r-t)/r, "%", traced.ops)
}

// traceGateway is the traced pass of a gateway workload. On one set-up
// it measures an untraced reference phase and then the traced phase,
// half the run each; the child's profile, CPU and allocation counters
// cover the traced phase alone.
func traceGateway(ctx context.Context, w workload, o runOpts) (Result, spanFile, error) {
	res := newResult(w.name, true)
	var t tally
	r, err := setUp(ctx, w, obsRegistry, o.seed)
	if err != nil {
		return res, spanFile{}, err
	}
	defer r.discard()
	r.collectTally(&t)
	half := o.phase() / 2

	ref, err := r.measure(half, nSlices, false)
	if err != nil {
		return res, spanFile{}, err
	}
	var mark ticksReply
	if err := r.child.call("mark", &mark); err != nil {
		return res, spanFile{}, err
	}
	for _, c := range r.conns {
		c.msgs, c.data = 0, 0
	}
	started := time.Now()
	r.trace(started, true)
	ps, err := r.measure(half, nSlices, true)
	if err != nil {
		return res, spanFile{}, err
	}
	wall := time.Since(started).Seconds()
	var rep reportReply
	if err := r.child.call("report", &rep); err != nil {
		return res, spanFile{}, err
	}
	ts := r.tracers()
	r.trace(started, false)
	var msgs, data int64
	for _, c := range r.conns {
		msgs, data = msgs+c.msgs, data+c.data
	}
	r.collectTally(&t)

	m := res.Metrics
	for _, stage := range []string{"read", "dispatch", "apply", "write"} {
		q := rep.Stages[stage]
		m["gateway.wire."+stage+"_p50_ns"] = one(float64(q.P50), "ns", int(q.Count))
		m["gateway.wire."+stage+"_p99_ns"] = one(float64(q.P99), "ns", int(q.Count))
	}
	m["gateway.wire.exchange_p50_ns"] = one(float64(rep.Exchange.P50), "ns", int(rep.Exchange.Count))
	m["gateway.wire.exchange_p99_ns"] = one(float64(rep.Exchange.P99), "ns", int(rep.Exchange.Count))
	if msgs > 0 {
		m["gateway.cpu_us_per_msg"] = one(float64(rep.CPUNs)/1e3/float64(msgs), "us", int(msgs))
		m["gateway.alloc_b_per_msg"] = one(float64(rep.AllocB)/float64(msgs), "B", int(msgs))
	}
	send := total("Mux.Send", ts...)
	sendBatch := total("Mux.SendBatch", ts...)
	if data > 0 {
		m["gateway.mux.send_ns_per_msg"] = one(float64(send.SumNs+sendBatch.SumNs)/float64(data), "ns", int(send.Count+sendBatch.Count))
	}
	stats := total("Mux.Stats", ts...)
	statsBatch := total("Mux.StatsBatch", ts...)
	stats.hist.Merge(&statsBatch.hist)
	m["gateway.mux.stats_rtt_p50_us"] = one(float64(stats.hist.Quantile(0.50))/1e3, "us", int(stats.hist.Count()))
	rtt := total("exchange", ts...)
	inject := total("inject", ts...)
	rtt.hist.Merge(&inject.hist)
	m["gateway.rtt_p99_us"] = one(float64(rtt.hist.Quantile(0.99))/1e3, "us", int(rtt.hist.Count()))

	rounds := rep.TickRound.Count
	if rounds > 0 {
		m["gateway.tick.ns_per_slot"] = one(float64(rep.TickShard.Sum)/(float64(rounds)*float64(w.slots)), "ns", int(rounds))
	}
	m["gateway.tick.round_p99_us"] = one(float64(rep.TickRound.P99)/1e3, "us", int(rounds))
	m["gateway.tick.shard_p50_us"] = one(float64(rep.TickShard.P50)/1e3, "us", int(rep.TickShard.Count))
	m["gateway.tick.join_wait_p50_us"] = one(float64(rep.JoinWait.P50)/1e3, "us", int(rep.JoinWait.Count))
	m["gateway.tick.missed"] = one(ps.missed, "count", int(ps.ticks))
	m["gateway.gc_pause_ms_per_s"] = one(float64(rep.GCPauseNs)/1e6/wall, "ms/s", 1)
	if w.kind == kindRounds {
		m["gateway.tick.alloc_b_per_round"] = sliced("B", ps.allocB, len(ps.allocB))
	} else if t.failed == 0 {
		// The wire and the round allocate side by side while the ticker
		// runs; rounds on an idle gateway separate the round's share.
		var br burstReply
		if err := r.child.call("burst 32 mem", &br); err != nil {
			return res, spanFile{}, err
		}
		m["gateway.tick.alloc_b_per_round"] = one(float64(br.AllocB)/32, "B", 32)
	}

	var opens, last []int64
	for _, c := range r.conns {
		opens = append(opens, c.openNs...)
		last = append(last, c.openNs[len(c.openNs)*9/10:]...)
	}
	m["gateway.table.open_p50_us"] = one(percentile(opens, 0.50)/1e3, "us", len(opens))
	m["gateway.table.open_last_decile_p50_us"] = one(percentile(last, 0.50)/1e3, "us", len(last))
	m["bench.trace_overhead_pct"] = overheadPct(ref, ps)

	if t.failed == 0 {
		if err := r.settle(&t); err != nil {
			return res, spanFile{}, err
		}
	}

	if w.obsCost && t.failed == 0 {
		rate := map[string]float64{obsRegistry: ps.units / ps.seconds}
		for _, mode := range []string{obsBare, obsSpans} {
			other, err := obsPhase(ctx, w, mode, o.seed, half, &t)
			if err != nil {
				return res, spanFile{}, err
			}
			if other.seconds > 0 {
				rate[mode] = other.units / other.seconds
			}
		}
		if rate[obsBare] > 0 && rate[obsSpans] > 0 {
			m["obs.metrics_ns_per_msg"] = one(1e9/rate[obsRegistry]-1e9/rate[obsBare], "ns", int(msgs))
			m["obs.spans_ns_per_msg"] = one(1e9/rate[obsSpans]-1e9/rate[obsRegistry], "ns", int(msgs))
		}
	}

	res.setTally(&t)
	return res, collect(w.name, ts...), nil
}

// obsPhase runs the traced closed loop against a gateway hosted in
// another obs mode and returns the phase; its checks count like any
// other.
func obsPhase(ctx context.Context, w workload, mode string, seed uint64, length time.Duration, t *tally) (phaseStats, error) {
	r, err := setUp(ctx, w, mode, seed)
	if err != nil {
		return phaseStats{}, err
	}
	defer r.discard()
	r.trace(time.Now(), true)
	ps, err := r.measure(length, nSlices, true)
	if err != nil {
		return phaseStats{}, err
	}
	r.collectTally(t)
	if t.failed == 0 {
		err = r.settle(t)
	}
	return ps, err
}

// traceSim is the traced pass of sim-multi: an untraced reference phase,
// then the same sweeps with a span around every MultiRunner.Run.
func traceSim(w workload, o runOpts) (Result, spanFile, error) {
	res := newResult(w.name, true)
	s := newSweeper(simInputs(o.seed, simKsFor(o), simTicks, w.do), w.do)
	half := o.phase() / 2
	ref, err := simPhase(s, half)
	if err != nil {
		return res, spanFile{}, err
	}
	s.tr = newTracer(time.Now())
	ps, err := simPhase(s, half)
	if err != nil {
		return res, spanFile{}, err
	}
	res.Metrics["bench.trace_overhead_pct"] = overheadPct(ref, ps)
	res.setTally(&s.tally)
	return res, collect(w.name, s.tr), nil
}

// layerSize is the layers section's slot and tick count: one shard of
// the 100k-slot gateways, or a token size for the smoke test.
func layerSize(o runOpts) (int, bw.Tick) {
	if o.slots > 0 {
		return 100, 2 * layerDO
	}
	return layerSlots, layerTicks
}
