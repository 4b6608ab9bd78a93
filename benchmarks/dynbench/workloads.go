package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/gateway"
	"dynbw/internal/rng"
	"dynbw/internal/traffic"
)

type kind int

const (
	kindPermsg kind = iota // closed loop of Mux.Send then Mux.Stats on one session
	kindBatch              // closed loop of Mux.SendBatch(64) then Mux.StatsBatch(64)
	kindRounds             // manual clock: inject a burst, then D_O back-to-back rounds
	kindSim                // no gateway: sim.MultiRunner over a seeded trace.Multi
)

// workload is one of the benchmark's workloads; benchmarks/README.md
// says why each is there and which layer it stresses.
type workload struct {
	name   string
	kind   kind
	slots  int
	shards int
	do     bw.Tick       // offline delay bound D_O of the hosted policy
	period time.Duration // ticker period; 0 means the clock is manual
	// activePct is the share of sessions, in percent, that receive a
	// burst in each cycle of a kindRounds workload.
	activePct int
	// setups is how often a run sets the workload up; setup_s is the
	// median. Every set-up is measured on for its share of the run: one
	// gateway process and its connections run up to a fifth faster or
	// slower than the next for as long as they live, so a run that
	// measured on one of them would repeat no better than that. A
	// 100k-slot ramp takes seconds, so those workloads afford fewer.
	setups int
	// obsCost makes the traced pass repeat the workload on a bare and on
	// an every-message-span gateway, to price the observability.
	obsCost bool
	// ungated keeps the workload out of BENCHMARK.json, whose driver
	// refuses a benchmark when ten runs of one workload spread past the
	// bound: the workload is run, checked and reported like the others
	// but its times follow the host too closely to be held to a bound.
	ungated bool
}

var workloads = []workload{
	{name: "permsg-1k", kind: kindPermsg, slots: 1024, shards: 1, do: 8, period: time.Millisecond, setups: 5, obsCost: true},
	{name: "batch-1k", kind: kindBatch, slots: 1024, shards: 1, do: 8, period: time.Millisecond, setups: 5, obsCost: true},
	{name: "live-100k", kind: kindBatch, slots: 100000, shards: 8, do: 8, period: 5 * time.Millisecond, setups: 3},
	{name: "sparse-100k", kind: kindRounds, slots: 100000, shards: 8, do: 32, activePct: 1, setups: 3},
	{name: "dense-100k", kind: kindRounds, slots: 100000, shards: 8, do: 32, activePct: 100, setups: 3},
	{name: "sim-multi", kind: kindSim, do: 8, setups: 9, ungated: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// batchLen is the SendBatch/StatsBatch size of the batched closed loop.
	batchLen = 64
	// poolLen is how many generated arrival sizes a connection cycles
	// through.
	poolLen = 4096
	// dialTimeout bounds the dial and every exchange, as a deployed
	// client would; a wedged gateway fails the run instead of hanging it.
	dialTimeout = 30 * time.Second
)

// loadConns is the number of load connections, one goroutine each. The
// load generator must not oversubscribe the box it shares with the
// gateway, so it is never more than nproc.
func loadConns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// runOpts is what the command line fixes for a run.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	// slots, when positive, shrinks every workload to that many slots
	// (the smoke test).
	slots int
}

func (o runOpts) phase() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

func (w workload) scaled(o runOpts) workload {
	if o.slots > 0 && w.slots > o.slots {
		w.slots = o.slots
		for w.slots%w.shards != 0 {
			w.shards--
		}
	}
	return w
}

// measures reports whether the workload measures the named metric
// itself. Of the end-to-end metrics two are not every workload's: only a
// clock on a ticker can fall behind (a commanded burst runs every round
// it is told to, and the simulator has no wall clock), and only a
// gateway has slots to divide its heap by. Of the layer metrics a
// workload reaches the gateway's if it hosts one and the price of
// observability if it is priced there; those of core, queue, bw and sim
// come from the layers section whatever the workload.
func (w workload) measures(metric string) bool {
	layer, _, _ := strings.Cut(metric, ".")
	switch {
	case metric == "ticks_kept_ratio":
		return w.period > 0
	case metric == "heap_per_slot_b", layer == "gateway":
		return w.kind != kindSim
	case layer == "obs":
		return w.obsCost
	case layer == "core", layer == "queue", layer == "bw", layer == "sim":
		return false
	}
	return true
}

// msgsPerExchange is the logical messages one timed exchange completes.
func (w workload) msgsPerExchange() int {
	if w.kind == kindBatch {
		return 2 * batchLen
	}
	return 2
}

// tally counts operations attempted and failed; the first few failures
// keep their reason for the report.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) ok(n int) { t.attempted += n }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.attempted++
		return
	}
	t.fail(format, args...)
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 8 {
			t.failures = append(t.failures, f)
		}
	}
}

// sample is one timed operation: when it ended, counted from the start
// of the phase, and how long it took.
type sample struct {
	end time.Duration
	dur time.Duration
}

// conn is one load connection and the goroutine-private state of the
// goroutine driving it.
type conn struct {
	idx  int
	mux  *gateway.Mux
	ids  []uint32  // sessions this connection opened, in seeded order
	pool []bw.Bits // generated arrival sizes, cycled
	tr   *tracer   // nil in the untraced pass

	pos, poolPos int
	seq          uint64
	sent         bw.Bits
	msgs, data   int64 // logical messages completed; DATA messages among them
	openNs       []int64
	samples      []sample
	items        []gateway.BatchItem
	statIDs      []uint32
	tally        tally
}

func (c *conn) nextID() uint32 {
	id := c.ids[c.pos]
	if c.pos++; c.pos == len(c.ids) {
		c.pos = 0
	}
	return id
}

func (c *conn) nextBits() bw.Bits {
	b := c.pool[c.poolPos]
	if c.poolPos++; c.poolPos == len(c.pool) {
		c.poolPos = 0
	}
	return b
}

// spanID is shared by every span of one exchange.
func (c *conn) spanID() uint64 { return uint64(c.idx)<<56 | c.seq }

// exchange is the timed operation of the wire workloads: submit, then
// read the accounting back, so the reply proves the gateway applied it.
func (c *conn) exchange(w workload) error {
	c.seq++
	x := c.tr.start("exchange", c.spanID(), -1)
	defer c.tr.end(x)
	if w.kind == kindPermsg {
		id, bits := c.nextID(), c.nextBits()
		s := c.tr.start("Mux.Send", c.spanID(), x)
		err := c.mux.Send(id, bits)
		c.tr.end(s)
		if err != nil {
			return err
		}
		c.sent += bits
		s = c.tr.start("Mux.Stats", c.spanID(), x)
		_, err = c.mux.Stats(id)
		c.tr.end(s)
		c.msgs, c.data = c.msgs+2, c.data+1
		return err
	}
	c.items, c.statIDs = c.items[:0], c.statIDs[:0]
	for i := 0; i < batchLen; i++ {
		id, bits := c.nextID(), c.nextBits()
		c.items = append(c.items, gateway.BatchItem{Session: id, Bits: bits})
		c.statIDs = append(c.statIDs, id)
	}
	s := c.tr.start("Mux.SendBatch", c.spanID(), x)
	err := c.mux.SendBatch(c.items)
	c.tr.end(s)
	if err != nil {
		return err
	}
	for _, it := range c.items {
		c.sent += it.Bits
	}
	s = c.tr.start("Mux.StatsBatch", c.spanID(), x)
	_, err = c.mux.StatsBatch(c.statIDs)
	c.tr.end(s)
	c.msgs, c.data = c.msgs+2*batchLen, c.data+batchLen
	return err
}

// wire runs the closed loop until length has passed since start. At each
// boundary between the slices length is cut into it calls boundary, when
// given, between two exchanges.
func (c *conn) wire(w workload, start time.Time, length time.Duration, slices int, boundary func()) {
	next := 1
	for {
		now := time.Now()
		el := now.Sub(start)
		if el >= length {
			return
		}
		if boundary != nil && next < slices && el >= length*time.Duration(next)/time.Duration(slices) {
			boundary()
			next++
			continue
		}
		err := c.exchange(w)
		d := time.Since(now)
		if err != nil {
			c.tally.fail("%s exchange on connection %d: %v", w.name, c.idx, err)
			return
		}
		c.tally.ok(1)
		c.samples = append(c.samples, sample{end: el + d, dur: d})
	}
}

// inject submits one burst to every session of group and waits until the
// gateway has applied it: DATA has no reply, so a STATS on the same
// connection, which the gateway handles in order, is the barrier.
func (c *conn) inject(group []uint32) error {
	c.seq++
	x := c.tr.start("inject", c.spanID(), -1)
	defer c.tr.end(x)
	c.items = c.items[:0]
	for _, id := range group {
		c.items = append(c.items, gateway.BatchItem{Session: id, Bits: c.nextBits()})
	}
	s := c.tr.start("Mux.SendBatch", c.spanID(), x)
	err := c.mux.SendBatch(c.items)
	c.tr.end(s)
	if err != nil {
		return err
	}
	for _, it := range c.items {
		c.sent += it.Bits
	}
	s = c.tr.start("Mux.Stats", c.spanID(), x)
	_, err = c.mux.Stats(group[0])
	c.tr.end(s)
	c.msgs, c.data = c.msgs+int64(len(group))+1, c.data+int64(len(group))
	return err
}

// group returns the sessions of this connection that burst in cycle n:
// activePct of them, rotating so that every session takes its turn.
func (c *conn) group(w workload, n int) []uint32 {
	size := len(c.ids) * w.activePct / 100
	if size < 1 {
		size = 1
	}
	groups := (len(c.ids) + size - 1) / size
	lo := (n % groups) * size
	hi := lo + size
	if hi > len(c.ids) {
		hi = len(c.ids)
	}
	return c.ids[lo:hi]
}

// arrivalPool generates the sizes a connection submits. The program sees
// nothing but these generated inputs. Wire workloads draw message sizes
// from an on/off source clamped to a quarter of the session's share, so
// the closed loop can run several times faster than today before the
// gateway saturates; the manual-clock workloads draw burst sizes from a
// heavy-tailed source over a constant floor, capped at what the share
// serves in D_O/2 ticks, so one burst per D_O ticks is feasible by
// construction and every chosen session is backlogged.
func arrivalPool(w workload, seed uint64) []bw.Bits {
	if w.kind == kindRounds {
		src := traffic.Composite{Parts: []traffic.Generator{
			traffic.CBR{Rate: share},
			traffic.ParetoBurst{Seed: seed, Alpha: 1.5, MinBurst: bw.Volume(share, 2), MeanGap: 1, SpreadTicks: 1},
		}}
		// One pool entry is one cycle's burst, so the cap on an entry is a
		// rate per cycle: what the share serves in D_O/2 ticks.
		perCycle := bw.RateOver(bw.Volume(share, w.do)/2, 1)
		return traffic.ClampTrace(src.Generate(poolLen), perCycle, 0).Arrivals()
	}
	src := traffic.OnOff{Seed: seed, PeakRate: share / 2, MeanOn: 4, MeanOff: 4}
	return traffic.ClampTrace(src.Generate(poolLen), share/4, w.do).Arrivals()
}

// rig is one set-up gateway: the child process and the load connections
// with every slot open.
type rig struct {
	w     workload
	child *child
	conns []*conn
}

// setUp spawns the gateway child, dials the load connections and opens
// every slot, with the clock parked. It is the work setup_s times.
func setUp(ctx context.Context, w workload, obsMode string, seed uint64) (*rig, error) {
	ch, err := startChild(ctx, w.slots, w.shards, w.do, obsMode)
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, child: ch}
	n := loadConns()
	for i := 0; i < n; i++ {
		mux, err := gateway.DialMux(ch.addr, dialTimeout)
		if err != nil {
			r.discard()
			return nil, err
		}
		quota := w.slots / n
		if i < w.slots%n {
			quota++
		}
		r.conns = append(r.conns, &conn{
			idx:     i,
			mux:     mux,
			ids:     make([]uint32, 0, quota),
			pool:    arrivalPool(w, seed+uint64(i)),
			openNs:  make([]int64, 0, quota),
			samples: make([]sample, 0, 1<<18),
		})
	}
	r.each(func(c *conn) {
		for len(c.ids) < cap(c.ids) {
			start := time.Now()
			id, err := c.mux.Open()
			c.openNs = append(c.openNs, int64(time.Since(start)))
			if err != nil {
				// An OPENFAIL leaves the connection usable, but a slot the
				// table should have had is a failed operation either way.
				c.tally.fail("OPEN %d on connection %d: %v", len(c.ids), c.idx, err)
				if !errors.Is(err, gateway.ErrSessionLimit) {
					return
				}
				continue
			}
			c.tally.ok(1)
			c.ids = append(c.ids, id)
		}
		// Sessions are visited in a seeded order, so consecutive
		// messages land on unrelated slots and shards.
		src := rng.New(seed ^ uint64(c.idx+1)<<32)
		for i := len(c.ids) - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			c.ids[i], c.ids[j] = c.ids[j], c.ids[i]
		}
	})
	return r, nil
}

// each runs f for every connection, one goroutine per connection, and
// waits for all of them.
func (r *rig) each(f func(c *conn)) {
	var wg sync.WaitGroup
	for _, c := range r.conns[1:] {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			f(c)
		}(c)
	}
	f(r.conns[0])
	wg.Wait()
}

// discard closes the load connections and reaps the child.
func (r *rig) discard() {
	for _, c := range r.conns {
		c.mux.Close()
	}
	r.child.stop()
}

func (r *rig) failed() bool {
	for _, c := range r.conns {
		if c.tally.failed > 0 {
			return true
		}
	}
	return false
}

// sliceStats is one slice of a measured phase.
type sliceStats struct {
	work     float64 // work units per second
	p50, p90 float64 // timed operation, µs
	kept     float64 // rounds run ÷ rounds the ticker scheduled (wire workloads)
	stolen   int64   // clock ticks the hypervisor withheld meanwhile
}

// phaseStats is one measured phase, or several added up: its slices, and
// totals over it.
type phaseStats struct {
	slices  []sliceStats
	ops     int       // timed operations
	units   float64   // work units completed
	seconds float64   // time the work took
	ticks   int64     // rounds run
	missed  float64   // rounds scheduled but not run
	allocB  []float64 // exact bytes allocated per round (traced bursts)
}

// add appends the slices and totals of a phase measured on another
// set-up of the same workload.
func (ps *phaseStats) add(o phaseStats) {
	ps.slices = append(ps.slices, o.slices...)
	ps.ops += o.ops
	ps.units += o.units
	ps.seconds += o.seconds
	ps.ticks += o.ticks
	ps.missed += o.missed
	ps.allocB = append(ps.allocB, o.allocB...)
}

// metric folds one field of the phase's undisturbed slices into a metric.
func (ps phaseStats) metric(unit string, samples int, field func(sliceStats) float64) Metric {
	var v []float64
	for _, s := range undisturbed(ps.slices) {
		v = append(v, field(s))
	}
	return sliced(unit, v, samples)
}

// report folds the phase's slices into the metrics every workload has.
func (ps phaseStats) report(m map[string]Metric) {
	m["work_per_s"] = ps.metric("1/s", ps.ops, func(s sliceStats) float64 { return s.work })
	m["op_p50_us"] = ps.metric("us", ps.ops, func(s sliceStats) float64 { return s.p50 })
	m["op_p90_us"] = ps.metric("us", ps.ops, func(s sliceStats) float64 { return s.p90 })
}

// sliceOf returns which of the equal slices length is cut into an
// operation that ended at end falls in.
func sliceOf(end, length time.Duration, slices int) int {
	i := int(end * time.Duration(slices) / length)
	if i >= slices {
		i = slices - 1
	}
	return i
}

// wirePhase measures the closed loop for length, cut into slices, with
// the clock on its ticker, after a warm-up of a tenth of that. Connection
// 0 reads the child's tick count at every slice boundary, between two
// exchanges.
func (r *rig) wirePhase(length time.Duration, slices int) (phaseStats, error) {
	w := r.w
	var tr ticksReply
	if err := r.child.call("ticker "+w.period.String(), &tr); err != nil {
		return phaseStats{}, err
	}
	warm := time.Now()
	r.each(func(c *conn) { c.wire(w, warm, length/10, 0, nil) })
	for _, c := range r.conns {
		c.samples = c.samples[:0]
	}
	if r.failed() {
		return phaseStats{}, nil
	}

	type reading struct {
		at     time.Time
		ticks  int64
		stolen int64
	}
	readings := make([]reading, 0, slices+1)
	var callErr error
	read := func() {
		var tr ticksReply
		if err := r.child.call("ticks", &tr); err != nil && callErr == nil {
			callErr = err
		}
		readings = append(readings, reading{time.Now(), tr.Ticks, stolen()})
	}
	read()
	start := time.Now()
	r.each(func(c *conn) {
		if c.idx == 0 {
			c.wire(w, start, length, slices, read)
		} else {
			c.wire(w, start, length, 0, nil)
		}
	})
	read()
	if callErr != nil {
		return phaseStats{}, callErr
	}

	ps := phaseStats{seconds: length.Seconds()}
	durs := make([][]int64, slices)
	for _, c := range r.conns {
		for _, s := range c.samples {
			i := sliceOf(s.end, length, slices)
			durs[i] = append(durs[i], int64(s.dur))
		}
		ps.ops += len(c.samples)
	}
	ps.units = float64(ps.ops * w.msgsPerExchange())
	per := length.Seconds() / float64(slices)
	// A reading that a failed connection 0 never took leaves fewer
	// slices; the run has failed by then.
	for i := 0; i+1 < len(readings); i++ {
		scheduled := float64(readings[i+1].at.Sub(readings[i].at)) / float64(w.period)
		ran := float64(readings[i+1].ticks - readings[i].ticks)
		ps.missed += scheduled - ran
		if len(durs[i]) == 0 {
			continue // a stall swallowed the slice whole: it did no work and timed nothing
		}
		ps.slices = append(ps.slices, sliceStats{
			work:   float64(len(durs[i])*w.msgsPerExchange()) / per,
			p50:    percentile(durs[i], 0.50) / 1e3,
			p90:    percentile(durs[i], 0.90) / 1e3,
			kept:   ran / scheduled,
			stolen: readings[i+1].stolen - readings[i].stolen,
		})
	}
	ps.ticks = readings[len(readings)-1].ticks - readings[0].ticks
	return ps, nil
}

// roundsPhase measures allocation rounds for length, cut into slices,
// with the clock manual: each cycle injects one burst into the cycle's
// group of sessions with the clock parked, then commands D_O back-to-back
// rounds with the clients idle. Only the rounds are timed.
func (r *rig) roundsPhase(length time.Duration, slices int, mem bool) (phaseStats, error) {
	w := r.w
	command := fmt.Sprintf("burst %d", w.do)
	if mem {
		command += " mem"
	}
	type cycle struct {
		end    time.Duration
		rounds []int64
		ticks  int64
		allocB uint64
		stolen int64
	}
	var cycles []cycle
	n := 0
	run := func(start time.Time, length time.Duration, keep bool) error {
		var before ticksReply
		if err := r.child.call("ticks", &before); err != nil {
			return err
		}
		prev := before.Ticks
		for time.Since(start) < length {
			r.each(func(c *conn) {
				if err := c.inject(c.group(w, n)); err != nil {
					c.tally.fail("%s inject on connection %d: %v", w.name, c.idx, err)
					return
				}
				c.tally.ok(1)
			})
			n++
			if r.failed() {
				return nil
			}
			var br burstReply
			before := stolen()
			if err := r.child.call(command, &br); err != nil {
				return err
			}
			if keep {
				cycles = append(cycles, cycle{
					end: time.Since(start), rounds: br.RoundNs, ticks: br.Ticks - prev, allocB: br.AllocB,
					stolen: stolen() - before,
				})
			}
			prev = br.Ticks
		}
		return nil
	}
	if err := run(time.Now(), length/10, false); err != nil || r.failed() {
		return phaseStats{}, err
	}
	if err := run(time.Now(), length, true); err != nil {
		return phaseStats{}, err
	}

	var ps phaseStats
	durs := make([][]int64, slices)
	burstNs := make([]float64, slices)
	commanded := make([]float64, slices)
	ran := make([]float64, slices)
	withheld := make([]int64, slices)
	for _, cy := range cycles {
		i := sliceOf(cy.end, length, slices)
		durs[i] = append(durs[i], cy.rounds...)
		for _, d := range cy.rounds {
			burstNs[i] += float64(d)
		}
		commanded[i] += float64(w.do)
		ran[i] += float64(cy.ticks)
		withheld[i] += cy.stolen
		ps.ticks += cy.ticks
		if mem {
			ps.allocB = append(ps.allocB, float64(cy.allocB)/float64(w.do))
		}
	}
	for i := range durs {
		if len(durs[i]) == 0 {
			continue // a phase too short to put a cycle in every slice
		}
		ps.ops += len(durs[i])
		ps.units += float64(len(durs[i]) * w.slots)
		ps.seconds += burstNs[i] / 1e9
		ps.missed += commanded[i] - ran[i]
		ps.slices = append(ps.slices, sliceStats{
			work:   float64(len(durs[i])*w.slots) / (burstNs[i] / 1e9),
			p50:    percentile(durs[i], 0.50) / 1e3,
			p90:    percentile(durs[i], 0.90) / 1e3,
			stolen: withheld[i],
		})
	}
	return ps, nil
}

// sessionTotals is the StatsBatch sweep over every session, summed.
type sessionTotals struct {
	served, queued bw.Bits
	maxDelay       bw.Tick
	changes        int64
}

// settle parks the clock, commands 4·D_O rounds with the clients idle,
// sweeps StatsBatch over every session and checks the totals: everything
// sent was served, nothing is queued, and the gateway's own Close()
// accounting agrees. It ends the child's gateway.
func (r *rig) settle(t *tally) error {
	w := r.w
	drain := 4 * w.do
	var br burstReply
	if err := r.child.call(fmt.Sprintf("burst %d", drain), &br); err != nil {
		return err
	}
	var tr ticksReply
	if err := r.child.call("park", &tr); err != nil {
		return err
	}

	var sent bw.Bits
	var sum sessionTotals
	for _, c := range r.conns {
		sent += c.sent
		for lo := 0; lo < len(c.ids); lo += gateway.MaxBatch {
			hi := lo + gateway.MaxBatch
			if hi > len(c.ids) {
				hi = len(c.ids)
			}
			stats, err := c.mux.StatsBatch(c.ids[lo:hi])
			if err != nil {
				t.fail("%s final sweep on connection %d: %v", w.name, c.idx, err)
				return nil
			}
			for _, s := range stats {
				sum.served += s.Served
				sum.queued += s.Queued
				sum.changes += s.Changes
				if s.MaxDelay > sum.maxDelay {
					sum.maxDelay = s.MaxDelay
				}
			}
		}
	}
	t.check(sum.served == sent, "%s: sent %d bits, sessions served %d", w.name, sent, sum.served)
	t.check(sum.queued == 0, "%s: %d bits still queued after %d idle ticks", w.name, sum.queued, drain)

	var cr closeReply
	if err := r.child.call("close", &cr); err != nil {
		return err
	}
	t.check(cr.Served == sum.served && cr.Queued == sum.queued,
		"%s: Close() served/queued %d/%d, sessions %d/%d", w.name, cr.Served, cr.Queued, sum.served, sum.queued)
	t.check(int64(cr.Changes) == sum.changes, "%s: Close() changes %d, sessions %d", w.name, cr.Changes, sum.changes)
	t.check(cr.MaxDelay == sum.maxDelay, "%s: Close() max delay %d, sessions %d", w.name, cr.MaxDelay, sum.maxDelay)
	t.check(cr.Ticks == tr.Ticks, "%s: Close() ticks %d, clock sent %d", w.name, cr.Ticks, tr.Ticks)
	if w.period == 0 {
		// The manual-clock input is feasible by construction, so the
		// paper's delay guarantee D_A = 2·D_O must hold.
		t.check(cr.MaxDelay <= 2*w.do, "%s: max delay %d ticks exceeds D_A = %d", w.name, cr.MaxDelay, 2*w.do)
	}
	return nil
}

// measure runs the workload's measured phase on a set-up rig.
func (r *rig) measure(length time.Duration, slices int, traced bool) (phaseStats, error) {
	if r.w.kind == kindRounds {
		return r.roundsPhase(length, slices, traced)
	}
	return r.wirePhase(length, slices)
}

// trace switches every connection's spans on or off.
func (r *rig) trace(t0 time.Time, on bool) {
	for _, c := range r.conns {
		c.tr = nil
		if on {
			c.tr = newTracer(t0)
		}
	}
}

func (r *rig) tracers() []*tracer {
	var ts []*tracer
	for _, c := range r.conns {
		ts = append(ts, c.tr)
	}
	return ts
}

// collectTally folds every connection's tally into t.
func (r *rig) collectTally(t *tally) {
	for _, c := range r.conns {
		t.add(&c.tally)
		c.tally = tally{}
	}
}

// runGateway is the untraced pass of a gateway workload: w.setups times
// over it sets the workload up, measures for that share of the run and
// checks the outcome; the end-to-end metrics are taken over the slices of
// all the set-ups together.
func runGateway(ctx context.Context, w workload, o runOpts) (Result, error) {
	res := newResult(w.name, false)
	var t tally
	var ps phaseStats
	var setups []float64
	var heap heapReply
	onOne := func() error {
		start := time.Now()
		r, err := setUp(ctx, w, obsRegistry, o.seed)
		if err != nil {
			return err
		}
		defer r.discard()
		setups = append(setups, time.Since(start).Seconds())
		r.collectTally(&t)
		if err := r.child.call("heap", &heap); err != nil {
			return err
		}
		part, err := r.measure(o.phase()/time.Duration(w.setups), nSlices/w.setups, false)
		if err != nil {
			return err
		}
		ps.add(part)
		r.collectTally(&t)
		if t.failed > 0 {
			return nil
		}
		return r.settle(&t)
	}
	for i := 0; i < w.setups && t.failed == 0; i++ {
		if err := onOne(); err != nil {
			return res, err
		}
	}
	res.Metrics["setup_s"] = sliced("s", setups, len(setups))
	ps.report(res.Metrics)
	if w.measures("ticks_kept_ratio") {
		res.Metrics["ticks_kept_ratio"] = ps.metric("ratio", int(ps.ticks), func(s sliceStats) float64 { return s.kept })
	}
	res.Metrics["heap_per_slot_b"] = one(float64(heap.HeapAllocB)/float64(w.slots), "B", 1)
	res.setTally(&t)
	return res, nil
}
