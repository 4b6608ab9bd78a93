package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/gateway"
	"dynbw/internal/load"
	"dynbw/internal/metrics"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// The child hosts the gateway under test in its own process, so the load
// generator's goroutines never share the gateway's Go scheduler (see
// benchmarks/README.md for the measurement behind that). It owns the
// Config.Ticks channel and takes one-line commands on stdin, answering
// each with one JSON line on stdout; it exits when stdin closes.
//
//	park              stop the clock
//	ticker <period>   drive the clock from a real time.Ticker
//	burst <G> [mem]   G back-to-back blocking ticks with the clock parked;
//	                  replies the G-1 intervals between acceptances (each
//	                  one allocation round) and, with mem, the exact bytes
//	                  allocated by the G rounds
//	ticks             rounds started so far
//	heap              live heap after a forced GC
//	mark              remember profile, CPU and allocation baselines
//	report            deltas since mark
//	close             Gateway.Close(), reply its Stats, exit

// Obs modes of the hosted gateway: obsRegistry is the production shape
// of cmd/bwgateway, the other two bracket what that observability costs.
const (
	obsBare     = "bare"     // no registry, no rings
	obsRegistry = "registry" // registry, event ring, span ring at 1-in-1024
	obsSpans    = "spans"    // registry, event ring, a span for every message
)

// share is the per-slot slice of the offline bandwidth: B_O = share·slots.
const share = bw.Rate(16)

type helloReply struct {
	Addr string `json:"addr"`
}

type burstReply struct {
	// RoundNs are the intervals between consecutive tick acceptances.
	RoundNs []int64 `json:"round_ns"`
	// AllocB is the bytes allocated between an idle gateway before the
	// first tick and an idle gateway after the last round (mem only).
	AllocB uint64 `json:"alloc_b"`
	// Ticks is the rounds started so far, this burst included.
	Ticks int64 `json:"ticks"`
}

type ticksReply struct {
	Ticks int64 `json:"ticks"`
}

type heapReply struct {
	HeapAllocB uint64 `json:"heap_alloc_b"`
}

// quantiles is a histogram reduced to what the layer table prints.
type quantiles struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P99   int64 `json:"p99"`
}

type reportReply struct {
	CPUNs     int64                `json:"cpu_ns"`
	AllocB    uint64               `json:"alloc_b"`
	GCPauseNs uint64               `json:"gc_pause_ns"`
	Stages    map[string]quantiles `json:"stages"`
	Exchange  quantiles            `json:"exchange"`
	TickRound quantiles            `json:"tick_round"`
	TickShard quantiles            `json:"tick_shard"`
	JoinWait  quantiles            `json:"join_wait"`
}

type closeReply struct {
	Ticks    int64 `json:"ticks"`
	Served   int64 `json:"served"`
	Queued   int64 `json:"queued"`
	MaxDelay int64 `json:"max_delay"`
	Changes  int   `json:"changes"`
}

// clock feeds the gateway's tick channel. Every send is blocking, so a
// tick is accepted only when the previous round has finished; accepted
// counts them, which is exactly Gateway.Close().Ticks.
type clock struct {
	ch chan time.Time

	mu       sync.Mutex
	accepted int64         // guarded by mu
	stop     chan struct{} // guarded by mu; non-nil while a ticker runs
	done     chan struct{} // guarded by mu; closed when the ticker goroutine has exited
}

func (c *clock) count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.accepted
}

// park stops the ticker goroutine, if any, and waits for it.
func (c *clock) park() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// ticker forwards a real time.Ticker into the tick channel, as
// load.StartHost does: a round longer than the period makes the Ticker
// drop ticks, which is what ticks_kept_ratio sees.
func (c *clock) ticker(period time.Duration) {
	c.park()
	stop, done := make(chan struct{}), make(chan struct{})
	c.mu.Lock()
	c.stop, c.done = stop, done
	c.mu.Unlock()
	go func() {
		defer close(done)
		tk := time.NewTicker(period)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case t := <-tk.C:
				select {
				case <-stop:
					return
				case c.ch <- t:
					c.mu.Lock()
					c.accepted++
					c.mu.Unlock()
				}
			}
		}
	}()
}

// burst sends g ticks back to back and returns the g-1 intervals between
// acceptances: the tick loop takes the next tick only when the round
// before it is done, so each interval is one whole allocation round.
func (c *clock) burst(g int) []int64 {
	c.park()
	out := make([]int64, 0, g)
	var prev time.Time
	for i := 0; i < g; i++ {
		c.ch <- time.Time{}
		now := time.Now()
		if i > 0 {
			out = append(out, int64(now.Sub(prev)))
		}
		prev = now
	}
	c.mu.Lock()
	c.accepted += int64(g)
	c.mu.Unlock()
	return out
}

// settledAlloc returns TotalAlloc once the process has stopped
// allocating: the last round of a burst is still running when its tick
// is accepted, and nothing else in an idle gateway allocates.
func settledAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		prev := ms.Mallocs
		time.Sleep(2 * time.Millisecond)
		runtime.ReadMemStats(&ms)
		if ms.Mallocs == prev {
			return ms.TotalAlloc
		}
	}
}

// baseline is what mark remembers.
type baseline struct {
	prof  gateway.Profile
	cpuNs int64
	ms    runtime.MemStats
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// since reduces the samples h gained over base. The gateway's histograms
// only grow, so the difference bucket by bucket is itself a histogram at
// the same resolution.
func since(h, base metrics.Histogram) quantiles {
	was := make(map[int64]uint64)
	for _, b := range base.Buckets() {
		was[b.UpperBound] = b.Count
	}
	var d metrics.Histogram
	for _, b := range h.Buckets() {
		if n := b.Count - was[b.UpperBound]; n > 0 {
			d.ObserveN(b.UpperBound, int64(n))
		}
	}
	return quantiles{
		Count: d.Count(),
		Sum:   h.Sum() - base.Sum(),
		P50:   d.Quantile(0.50),
		P99:   d.Quantile(0.99),
	}
}

func mergeAll(hs []metrics.Histogram) metrics.Histogram {
	var m metrics.Histogram
	for i := range hs {
		m.Merge(&hs[i])
	}
	return m
}

// newGateway builds the hosted gateway: policy phased over
// B_O = share·slots, sharded like cmd/bwgateway -shards, with the
// observability the obs mode names.
func newGateway(slots, shards int, do bw.Tick, obsMode string, ticks <-chan time.Time) (*gateway.Gateway, error) {
	cfg := gateway.Config{
		Addr:   "127.0.0.1:0",
		Slots:  slots,
		Ticks:  ticks,
		Policy: "phased",
	}
	var ring obs.Observer
	var stripes *obs.ShardedRing
	if obsMode != obsBare {
		reg := obs.NewRegistry()
		obs.RegisterGoRuntime(reg)
		if shards > 1 {
			stripes = obs.NewShardedRing(obs.DefaultRingSize, shards)
			stripes.Instrument(reg)
			ring = stripes
		} else {
			r := obs.NewRing(obs.DefaultRingSize)
			r.Instrument(reg)
			ring = r
		}
		spans := obs.NewSpanRing(obs.DefaultSpanRingSize, gateway.StageNames())
		spans.Instrument(reg)
		cfg.Metrics, cfg.Observer, cfg.Spans = reg, ring, spans
		if obsMode == obsSpans {
			cfg.SpanSampleEvery = 1
		}
	}
	n := shards
	if n < 1 {
		n = 1
	}
	if slots%n != 0 {
		return nil, fmt.Errorf("%d slots do not divide across %d shards", slots, n)
	}
	allocs := make([]sim.MultiAllocator, n)
	for i := range allocs {
		a, err := load.NewPolicy(cfg.Policy, slots/n, bw.Rate(slots/n)*share, do)
		if err != nil {
			return nil, err
		}
		if o, ok := a.(obs.Observable); ok && ring != nil {
			if stripes != nil {
				o.SetObserver(stripes.Stripe(i))
			} else {
				o.SetObserver(ring)
			}
		}
		allocs[i] = a
	}
	if n > 1 {
		cfg.Shards, cfg.ShardAllocs = n, allocs
	} else {
		cfg.Alloc = allocs[0]
	}
	return gateway.NewWithConfig(cfg)
}

// serve is the child's main: host the gateway, obey stdin, exit on EOF.
func serve(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("dynbench -serve", flag.ContinueOnError)
	slots := fs.Int("slots", 1024, "session slots")
	shards := fs.Int("shards", 1, "shards")
	do := fs.Int64("do", 8, "offline delay bound D_O in ticks")
	obsMode := fs.String("obs", obsRegistry, "bare|registry|spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	clk := &clock{ch: make(chan time.Time)}
	gw, err := newGateway(*slots, *shards, *do, *obsMode, clk.ch)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(helloReply{Addr: gw.Addr()}); err != nil {
		return err
	}
	var base baseline
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		var reply any
		switch f[0] {
		case "park":
			clk.park()
			reply = ticksReply{Ticks: clk.count()}
		case "ticker":
			if len(f) != 2 {
				return fmt.Errorf("ticker wants a period")
			}
			period, err := time.ParseDuration(f[1])
			if err != nil || period <= 0 {
				return fmt.Errorf("ticker period %q", f[1])
			}
			clk.ticker(period)
			reply = ticksReply{Ticks: clk.count()}
		case "burst":
			if len(f) < 2 {
				return fmt.Errorf("burst wants a count")
			}
			g, err := strconv.Atoi(f[1])
			if err != nil || g < 1 {
				return fmt.Errorf("burst count %q", f[1])
			}
			mem := len(f) > 2 && f[2] == "mem"
			var before uint64
			if mem {
				clk.park() // a running ticker's rounds would never let the heap settle
				before = settledAlloc()
			}
			r := burstReply{RoundNs: clk.burst(g)}
			if mem {
				r.AllocB = settledAlloc() - before
			}
			r.Ticks = clk.count()
			reply = r
		case "ticks":
			reply = ticksReply{Ticks: clk.count()}
		case "heap":
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			reply = heapReply{HeapAllocB: ms.HeapAlloc}
		case "mark":
			base = baseline{prof: gw.Profile(), cpuNs: cpuNs()}
			runtime.ReadMemStats(&base.ms)
			reply = ticksReply{Ticks: clk.count()}
		case "report":
			reply = report(gw, &base)
		case "close":
			clk.park()
			st := gw.Close()
			return enc.Encode(closeReply{
				Ticks: st.Ticks, Served: st.Served, Queued: st.Queued,
				MaxDelay: st.MaxDelay, Changes: st.SessionChanges,
			})
		default:
			return fmt.Errorf("unknown command %q", f[0])
		}
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
	// The control pipe closed: the parent is gone or has given up. The
	// process exit releases the listener and every connection.
	return sc.Err()
}

func report(gw *gateway.Gateway, base *baseline) reportReply {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := gw.Profile()
	r := reportReply{
		CPUNs:     cpuNs() - base.cpuNs,
		AllocB:    ms.TotalAlloc - base.ms.TotalAlloc,
		GCPauseNs: ms.PauseTotalNs - base.ms.PauseTotalNs,
		Stages:    make(map[string]quantiles, len(p.Stages)),
		Exchange:  since(p.Exchange, base.prof.Exchange),
		TickRound: since(p.TickRound, base.prof.TickRound),
		TickShard: since(mergeAll(p.ShardTicks), mergeAll(base.prof.ShardTicks)),
		JoinWait:  since(p.JoinWait, base.prof.JoinWait),
	}
	for i, name := range p.StageNames {
		var was metrics.Histogram
		if i < len(base.prof.Stages) {
			was = base.prof.Stages[i]
		}
		r.Stages[name] = since(p.Stages[i], was)
	}
	return r
}

// serveMain runs the child and turns an error into its exit code.
func serveMain(args []string) int {
	if err := serve(args, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dynbench -serve:", err)
		return 1
	}
	return 0
}
