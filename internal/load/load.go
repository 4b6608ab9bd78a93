// Package load is the load-generation and soak-testing subsystem: one
// engine, Run, drives Config.Sessions sessions against a gateway.Gateway
// over its real TCP wire protocol, Config.PerConn of them to a
// gateway.Mux connection. One session per connection is the concurrent
// client swarm; 256 per connection with the KeepWarm workload is the
// soak that holds 100k sessions inside an ordinary fd limit. The
// difference is that count and nothing else.
//
// Every session replays an internal/traffic generator's trace, in
// open-loop (fixed wall-clock send schedule, the steady-state regime of
// [AKU] in PAPERS.md) or closed-loop (next burst only after the previous
// one is delivered, the achievable-throughput shape of [CFS]) mode. A
// connection is one goroutine on one ticker: a tick's bursts leave as one
// Mux.SendBatch, and one Mux.StatsBatch polls exactly the sessions with a
// burst undelivered — a poll crosses a shard lock, and a session with
// nothing outstanding has nothing to learn from one.
//
// The Result reports delivery latency (send until the gateway reports
// the burst fully served), stats and OPEN round-trip times, queue depth,
// live renegotiation counts and aggregate throughput. This is the rig
// every scaling change to the live path is judged against (experiment
// E21, cmd/bwload, cmd/bwgateway's demo).
package load

import (
	"cmp"
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/obs"
	"dynbw/internal/trace"
	"dynbw/internal/traffic"
)

// Mode selects how sessions pace their traffic; its values are the CLI
// spellings, and the zero value is OpenLoop.
type Mode string

const (
	// OpenLoop sends on a fixed wall-clock schedule regardless of how
	// fast the gateway serves — arrival pressure is independent of
	// service, as in steady-state soak testing.
	OpenLoop Mode = "open"
	// ClosedLoop offers a session's next burst only once its previous
	// one has been fully served — the run measures the service ceiling.
	ClosedLoop Mode = "closed"
)

// ParseMode converts the CLI spelling ("open", "closed") to a Mode.
func ParseMode(s string) (Mode, error) {
	if m := Mode(s); m == OpenLoop || m == ClosedLoop {
		return m, nil
	}
	return "", fmt.Errorf("load: unknown mode %q (want open|closed)", s)
}

// Config parameterizes a run.
type Config struct {
	// Addr is the gateway to attack.
	Addr string
	// Sessions is the number of concurrent client sessions.
	Sessions int
	// PerConn is how many sessions share one multiplexed connection
	// (default 1; the run dials ceil(Sessions/PerConn) connections).
	PerConn int
	// Mode is open- or closed-loop pacing (default OpenLoop).
	Mode Mode
	// Tick is the wall-clock send/poll cadence (default 1ms).
	Tick time.Duration
	// Duration is each connection's sending window, Duration/Tick ticks
	// (default 1s).
	Duration time.Duration
	// Ramp spreads session opens uniformly over this long, so the
	// gateway sees a realistic arrival ramp instead of a thundering herd
	// (default 0). A connection's window starts once its sessions are open.
	Ramp time.Duration
	// Seed derives each session's generator seed (Seed + session id).
	Seed uint64
	// Gen builds session id's traffic generator; the session replays
	// Gen(id).Generate(Duration/Tick), a trace it may share (KeepWarm).
	// Default: seeded on/off bursts with mean rate MeanRate.
	Gen func(id int) traffic.Generator
	// MeanRate is the default generator's mean bits per tick (default 32).
	MeanRate bw.Rate
	// DrainTimeout bounds how long a connection waits after its sending
	// window for the gateway to serve everything it sent (default 5s).
	DrainTimeout time.Duration
	// Registry, when non-nil, receives the run's live metrics (bursts,
	// bits, active sessions, delivery/RTT histograms) for an admin endpoint
	// to serve in flight, and is snapshotted into Result.MidScrape mid-window.
	Registry *obs.Registry
	// MetricsLabel is the policy label on the exported series (default
	// "swarm").
	MetricsLabel string
	// Observer, when non-nil, receives client-side session lifecycle
	// events (open, close, open-fail retries).
	Observer obs.Observer
	// TraceEvery, when positive, wraps every TraceEvery-th request on
	// each connection in a TRACE envelope, forcing the gateway to record
	// a client-tagged span for it (0: no envelopes).
	TraceEvery int
}

// orDefault sets *v to d unless it already holds a positive value.
func orDefault[T cmp.Ordered](v *T, d T) {
	var zero T
	if *v <= zero {
		*v = d
	}
}

func (c Config) withDefaults() Config {
	orDefault(&c.PerConn, 1)
	orDefault(&c.Mode, OpenLoop)
	orDefault(&c.Tick, time.Millisecond)
	orDefault(&c.Duration, time.Second)
	orDefault(&c.MeanRate, 32)
	orDefault(&c.DrainTimeout, 5*time.Second)
	orDefault(&c.MetricsLabel, "swarm")
	if c.Gen == nil {
		c.Gen = func(id int) traffic.Generator {
			return traffic.OnOff{Seed: c.Seed + uint64(id) + 1, PeakRate: 3 * c.MeanRate, MeanOn: 8, MeanOff: 16}
		}
	}
	return c
}

// ticks is the length of the sending window, and of every session's trace.
func (c *Config) ticks() bw.Tick { return max(bw.Tick(c.Duration/c.Tick), 1) }

// KeepWarm is the soak's workload as a Config.Gen: session id offers
// bits once every `every` ticks, on the ticks congruent to id modulo
// every, so a tick touches one session in `every` — enough to exercise
// every shard without turning a soak into a throughput test. Sessions of
// equal id modulo every replay one realized trace: 100k sessions hold
// `every` traces, where a 300-tick trace each (16 bytes a tick) is 480 MB.
func KeepWarm(bits bw.Bits, every int) func(id int) traffic.Generator {
	var mu sync.Mutex
	traces := make([]*trace.Trace, every) // guarded by mu; the last realized, by phase
	return func(id int) traffic.Generator {
		phase := id % every
		return traffic.GeneratorFunc(func(n bw.Tick) *trace.Trace {
			mu.Lock()
			defer mu.Unlock()
			if tr := traces[phase]; tr == nil || tr.Len() != n {
				arrivals := make([]bw.Bits, n)
				for t := phase; t < len(arrivals); t += every {
					arrivals[t] = bits
				}
				traces[phase] = trace.MustNew(arrivals)
			}
			return traces[phase]
		})
	}
}

// swarmObs is the run's telemetry, shared by every connection and
// concurrency-safe. The pointers are a registry's live series, nil (and
// so no-ops) without one; they outlive the run and a later run with the
// same label shares them, so what the Result reports is tallied beside
// them — once for the run, because a latency histogram is 8 KB.
type swarmObs struct {
	o         obs.Observer
	active    *obs.Gauge
	bursts    *obs.Counter
	delivered *obs.Counter
	bitsSent  *obs.Counter
	errors    *obs.Counter
	openFails *obs.Counter
	delivery  *obs.Histogram
	rtt       *obs.Histogram

	openFailed              *obs.Counter
	deliveries, rtts, opens *obs.Histogram
}

func newSwarmObs(reg *obs.Registry, label string, o obs.Observer) *swarmObs {
	l := obs.L("policy", label)
	return &swarmObs{
		o:         o,
		active:    reg.Gauge("dynbw_load_sessions_active", "Swarm sessions currently running.", 1, l),
		bursts:    reg.Counter("dynbw_load_bursts_total", "Bursts sent by the swarm.", 1, l),
		delivered: reg.Counter("dynbw_load_delivered_total", "Bursts observed fully served.", 1, l),
		bitsSent:  reg.Counter("dynbw_load_bits_sent_total", "Bits offered by the swarm.", 1, l),
		errors:    reg.Counter("dynbw_load_session_errors_total", "Sessions that ended with a fatal error.", 1, l),
		openFails: reg.Counter("dynbw_load_open_fails_total", "OPENFAIL retries observed while dialing.", 1, l),
		delivery:  reg.Histogram("dynbw_load_delivery_ns", "End-to-end burst delivery latency, nanoseconds.", 1, l),
		rtt:       reg.Histogram("dynbw_load_rtt_ns", "STATS request/reply round-trip time, nanoseconds.", 1, l),

		openFailed: obs.NewCounter(1), deliveries: obs.NewHistogram(1), rtts: obs.NewHistogram(1), opens: obs.NewHistogram(1),
	}
}

// emit forwards a client-side lifecycle event to the observer, if any.
func (s *swarmObs) emit(typ obs.EventType, session int) {
	if s.o != nil {
		s.o.Event(obs.Event{Type: typ, Session: session, Rule: "swarm"})
	}
}

// SessionResult is one session's accounting. It is scalars only: a run
// holds one per session, and at the 100k sessions the soak exists for an
// 8 KB latency histogram in each of two would be 1.6 GB. Latency
// distributions are kept once, for the whole run.
type SessionResult struct {
	// Slot is the wire session ID the gateway handed out.
	Slot uint32
	// Released reports whether the slot was handed back with an explicit
	// CLOSE/CLOSED exchange.
	Released bool
	// Err is the first fatal error (nil for a clean run): the session's
	// own failure to open, or the failed exchange that ended its
	// connection.
	Err error
	// Bursts is how many nonzero bursts were sent; Delivered how many
	// were observed fully served before the drain deadline.
	Bursts    int
	Delivered int
	// BitsSent / BitsServed are this session's volume, as the client
	// counted it and as the gateway reported it at teardown.
	BitsSent   bw.Bits
	BitsServed bw.Bits
	// FinalQueued is what remained unserved at the session's last poll
	// (teardown polls every session); MaxQueued the deepest queue any
	// poll observed.
	FinalQueued bw.Bits
	MaxQueued   bw.Bits
	// Changes is the session's renegotiation count (the paper's cost
	// measure, live).
	Changes int64
	// MaxDelayTicks is the gateway-side per-bit delay bound observed.
	MaxDelayTicks bw.Tick
	// MaxDelivery is the session's worst end-to-end burst delivery
	// latency: send until the cumulative served volume covers the burst.
	MaxDelivery time.Duration
}

// Result is the run-wide aggregate.
type Result struct {
	// Sessions echoes Config.Sessions; Opened/Failed partition it. Conns
	// is how many connections carried them.
	Sessions int
	Conns    int
	Opened   int
	Failed   int
	// OpenFails counts OPENFAIL replies met (and retried) while opening.
	OpenFails int
	Mode      Mode
	Tick      time.Duration
	Duration  time.Duration
	Elapsed   time.Duration

	Bursts     int
	Delivered  int
	BitsSent   bw.Bits
	BitsServed bw.Bits
	// Throughput is served volume over wall-clock time, bits/second.
	Throughput float64
	// Changes sums per-session renegotiation counts; MaxDelayTicks and
	// MaxQueued are run-wide maxima.
	Changes       int64
	MaxDelayTicks bw.Tick
	MaxQueued     bw.Bits
	Released      int

	// Delivery, RTT and Open are the run's latency histograms (ns
	// samples): burst delivery, one per delivered burst; STATS round
	// trips, one per batched poll — each crosses a shard lock, so this is
	// the live contention measure; OPEN round trips, one per session.
	Delivery metrics.Histogram
	RTT      metrics.Histogram
	Open     metrics.Histogram

	// MidScrape is Config.Registry's Prometheus exposition halfway
	// through the sending window, every session open (empty without a
	// Registry).
	MidScrape string

	// PerSession holds the individual session results, indexed by the
	// run-local session ID that Config.Gen and the ramp see.
	PerSession []SessionResult
}

// Drained reports whether every opened session saw all its traffic
// served before teardown.
func (r *Result) Drained() bool {
	for i := range r.PerSession {
		s := &r.PerSession[i]
		if s.Err == nil && (s.FinalQueued != 0 || s.BitsServed < s.BitsSent) {
			return false
		}
	}
	return true
}

// Errs returns the fatal per-session errors (empty for a clean run).
func (r *Result) Errs() []error {
	var errs []error
	for i := range r.PerSession {
		if err := r.PerSession[i].Err; err != nil {
			errs = append(errs, fmt.Errorf("session %d: %w", i, err))
		}
	}
	return errs
}

// Run drives cfg.Sessions sessions against cfg.Addr over
// ceil(Sessions/PerConn) connections and blocks until every connection
// has opened its sessions, run its sending window, drained, taken final
// accounting and released its slots. Cancelling ctx cuts windows and
// drains short; accounting and release still run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Sessions < 1 || cfg.Addr == "" {
		return nil, fmt.Errorf("load: %d sessions to gateway %q", cfg.Sessions, cfg.Addr)
	}
	res := &Result{
		Sessions:   cfg.Sessions,
		Conns:      (cfg.Sessions + cfg.PerConn - 1) / cfg.PerConn,
		Mode:       cfg.Mode,
		Tick:       cfg.Tick,
		Duration:   cfg.Duration,
		PerSession: make([]SessionResult, cfg.Sessions),
	}
	swarm := newSwarmObs(cfg.Registry, cfg.MetricsLabel, cfg.Observer)
	start := time.Now()
	var opened, done sync.WaitGroup
	for first := 0; first < cfg.Sessions; first += cfg.PerConn {
		c := &conn{cfg: &cfg, swarm: swarm, first: first,
			sess: res.PerSession[first:min(first+cfg.PerConn, cfg.Sessions)]}
		opened.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			c.run(ctx, start, &opened)
		}()
	}
	if cfg.Registry != nil {
		// The last connection to finish opening is half a window from its
		// middle; with no ramp to speak of, so is every other one.
		opened.Wait()
		await(ctx, time.After(cfg.Duration/2))
		var b strings.Builder
		if err := cfg.Registry.WritePrometheus(&b); err == nil {
			res.MidScrape = b.String()
		}
	}
	done.Wait()
	res.Elapsed = time.Since(start)

	res.OpenFails = int(swarm.openFailed.Value())
	res.Delivery, res.RTT, res.Open = swarm.deliveries.Snapshot(), swarm.rtts.Snapshot(), swarm.opens.Snapshot()
	for i := range res.PerSession {
		s := &res.PerSession[i]
		if s.Err != nil {
			res.Failed++
			swarm.errors.Inc(0)
		}
		if s.Released {
			res.Released++
		}
		res.Bursts += s.Bursts
		res.Delivered += s.Delivered
		res.BitsSent += s.BitsSent
		res.BitsServed += s.BitsServed
		res.Changes += s.Changes
		res.MaxDelayTicks = max(res.MaxDelayTicks, s.MaxDelayTicks)
		res.MaxQueued = max(res.MaxQueued, s.MaxQueued)
	}
	res.Opened = res.Sessions - res.Failed
	res.Throughput = float64(res.BitsServed) / res.Elapsed.Seconds()
	return res, nil
}
