// Package load is the load-generation and soak-testing subsystem: a
// concurrent client swarm that dials a gateway.Gateway over its real TCP
// wire protocol and drives every session with an internal/traffic
// generator, in open-loop (fixed wall-clock send schedule, the
// steady-state regime of [AKU] in PAPERS.md) or closed-loop (next burst
// only after the previous one is delivered, the achievable-throughput
// shape of [CFS]) mode.
//
// Each session records delivery latency (send until the gateway reports
// the burst fully served), stats round-trip time, queue depth, and the
// session's live renegotiation count into log-bucketed histograms
// (internal/metrics.Histogram); Run merges them into a swarm-wide Result
// with p50/p90/p99/max and aggregate throughput. This is the measurement
// rig every scaling change to the live path is judged against
// (experiment E21, cmd/bwload).
package load

import (
	"fmt"
	"sync"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/obs"
	"dynbw/internal/traffic"
)

// Mode selects how the swarm paces its traffic.
type Mode int

const (
	// OpenLoop sends on a fixed wall-clock schedule regardless of how
	// fast the gateway serves — arrival pressure is independent of
	// service, as in steady-state soak testing.
	OpenLoop Mode = iota
	// ClosedLoop sends the next burst only once the previous burst has
	// been fully served — the swarm measures the service ceiling.
	ClosedLoop
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case OpenLoop:
		return "open"
	case ClosedLoop:
		return "closed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts the CLI spelling ("open", "closed") to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "open":
		return OpenLoop, nil
	case "closed":
		return ClosedLoop, nil
	default:
		return 0, fmt.Errorf("load: unknown mode %q (want open|closed)", s)
	}
}

// Config parameterizes a swarm run.
type Config struct {
	// Addr is the gateway to attack.
	Addr string
	// Sessions is the number of concurrent client sessions.
	Sessions int
	// Mode is open- or closed-loop pacing.
	Mode Mode
	// Tick is the wall-clock send/poll cadence (default 1ms).
	Tick time.Duration
	// Duration is each session's sending window (default 1s).
	Duration time.Duration
	// Ramp spreads session starts uniformly over this long, so the
	// gateway sees a realistic arrival ramp instead of a thundering herd
	// (default 0: all at once).
	Ramp time.Duration
	// Seed derives each session's generator seed (Seed + session id).
	Seed uint64
	// Gen builds session id's traffic generator. Default: seeded on/off
	// bursts with mean rate MeanRate, rate-scaled via traffic.Scaled
	// when replaying simulation-scale generators at wall-clock ticks.
	Gen func(id int) traffic.Generator
	// MeanRate is the default generator's mean bits per tick (default 32).
	MeanRate bw.Rate
	// DialTimeout bounds the dial and every request/reply exchange
	// (default 5s).
	DialTimeout time.Duration
	// DialRetries is how many times a session retries dialing or
	// reopening after ErrSessionLimit, with exponential backoff
	// (default 10).
	DialRetries int
	// DrainTimeout bounds how long a session waits after its sending
	// window for the gateway to serve everything it sent (default 5s).
	DrainTimeout time.Duration
	// Registry, when non-nil, receives the swarm's live metrics
	// (bursts, bits, active sessions, delivery/RTT histograms) so an
	// in-flight soak can be scraped from an admin endpoint.
	Registry *obs.Registry
	// MetricsLabel is the policy label on the exported series (default
	// "swarm").
	MetricsLabel string
	// Observer, when non-nil, receives client-side session lifecycle
	// events (open, close, open-fail retries).
	Observer obs.Observer

	// swarm is the shared live-export state, built by Run.
	swarm *swarmObs
}

// swarmObs aggregates live swarm telemetry across sessions. All fields
// are concurrency-safe; a nil *swarmObs (no registry, no observer)
// disables export entirely.
type swarmObs struct {
	o         obs.Observer
	active    *obs.Gauge
	bursts    *obs.Counter
	delivered *obs.Counter
	bitsSent  *obs.Counter
	errors    *obs.Counter
	openFails *obs.Counter
	delivery  *obs.LiveHistogram
	rtt       *obs.LiveHistogram
}

func newSwarmObs(reg *obs.Registry, label string, o obs.Observer) *swarmObs {
	if reg == nil && o == nil {
		return nil
	}
	if label == "" {
		label = "swarm"
	}
	l := obs.L("policy", label)
	return &swarmObs{
		o:         o,
		active:    reg.Gauge("dynbw_load_sessions_active", "Swarm sessions currently running.", l),
		bursts:    reg.Counter("dynbw_load_bursts_total", "Bursts sent by the swarm.", l),
		delivered: reg.Counter("dynbw_load_delivered_total", "Bursts observed fully served.", l),
		bitsSent:  reg.Counter("dynbw_load_bits_sent_total", "Bits offered by the swarm.", l),
		errors:    reg.Counter("dynbw_load_session_errors_total", "Sessions that ended with a fatal error.", l),
		openFails: reg.Counter("dynbw_load_open_fails_total", "OPENFAIL retries observed while dialing.", l),
		delivery:  reg.Histogram("dynbw_load_delivery_ns", "End-to-end burst delivery latency, nanoseconds.", l),
		rtt:       reg.Histogram("dynbw_load_rtt_ns", "STATS request/reply round-trip time, nanoseconds.", l),
	}
}

// emit forwards an event to the swarm observer, if any.
func (s *swarmObs) emit(e obs.Event) {
	if s != nil && s.o != nil {
		s.o.Event(e)
	}
}

// openFailInc bumps the OPENFAIL-retry counter (nil-safe).
func (s *swarmObs) openFailInc() {
	if s != nil {
		s.openFails.Inc()
	}
}

// sent records one burst leaving a session (nil-safe).
func (s *swarmObs) sent(bits bw.Bits) {
	if s != nil {
		s.bursts.Inc()
		s.bitsSent.Add(int64(bits))
	}
}

func (c Config) withDefaults() Config {
	if c.Tick <= 0 {
		c.Tick = time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.MeanRate <= 0 {
		c.MeanRate = 32
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.DialRetries <= 0 {
		c.DialRetries = 10
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.Gen == nil {
		mean := c.MeanRate
		seed := c.Seed
		c.Gen = func(id int) traffic.Generator {
			return traffic.OnOff{
				Seed:     seed + uint64(id) + 1,
				PeakRate: 3 * mean,
				MeanOn:   8,
				MeanOff:  16,
			}
		}
	}
	return c
}

// SessionResult is one session's accounting.
type SessionResult struct {
	// ID is the swarm-local session index; Slot is the wire session ID
	// the gateway handed out.
	ID   int
	Slot uint32
	// Err is the first fatal error (nil for a clean run).
	Err error
	// Bursts is how many nonzero bursts were sent; Delivered how many
	// were observed fully served before the drain deadline.
	Bursts    int
	Delivered int
	// BitsSent / BitsServed are this session's volume, as the client
	// counted it and as the gateway reported it at teardown.
	BitsSent   bw.Bits
	BitsServed bw.Bits
	// FinalQueued is what remained unserved at teardown; MaxQueued the
	// deepest queue observed by any stats poll.
	FinalQueued bw.Bits
	MaxQueued   bw.Bits
	// Changes is the session's renegotiation count (the paper's cost
	// measure, live).
	Changes int64
	// MaxDelayTicks is the gateway-side per-bit delay bound observed.
	MaxDelayTicks bw.Tick
	// Delivery holds end-to-end burst delivery latencies (ns): send
	// until the cumulative served volume covers the burst.
	Delivery metrics.Histogram
	// RTT holds STATS request/reply round-trip times (ns).
	RTT metrics.Histogram
	// Released reports whether the slot was handed back with an explicit
	// CLOSE/CLOSED exchange.
	Released bool
}

// Result is the swarm-wide aggregate.
type Result struct {
	// Sessions echoes Config.Sessions; Opened/Failed partition it.
	Sessions int
	Opened   int
	Failed   int
	Mode     Mode
	Tick     time.Duration
	Duration time.Duration
	Elapsed  time.Duration

	Bursts     int
	Delivered  int
	BitsSent   bw.Bits
	BitsServed bw.Bits
	// Throughput is served volume over wall-clock time, bits/second.
	Throughput float64
	// Changes sums per-session renegotiation counts; MaxDelayTicks and
	// MaxQueued are swarm-wide maxima.
	Changes       int64
	MaxDelayTicks bw.Tick
	MaxQueued     bw.Bits
	Released      int

	// Delivery and RTT are the merged latency histograms (ns samples).
	Delivery metrics.Histogram
	RTT      metrics.Histogram

	// PerSession holds the individual session results, indexed by ID.
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

// Run launches the swarm against cfg.Addr and blocks until every session
// has finished its sending window, drained, and released its slot.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Sessions < 1 {
		return nil, fmt.Errorf("load: sessions = %d", cfg.Sessions)
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("load: empty gateway address")
	}
	cfg.swarm = newSwarmObs(cfg.Registry, cfg.MetricsLabel, cfg.Observer)

	perSession := make([]SessionResult, cfg.Sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runSession(cfg, id, &perSession[id])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{
		Sessions:   cfg.Sessions,
		Mode:       cfg.Mode,
		Tick:       cfg.Tick,
		Duration:   cfg.Duration,
		Elapsed:    elapsed,
		PerSession: perSession,
	}
	for i := range perSession {
		s := &perSession[i]
		if s.Err != nil {
			res.Failed++
		} else {
			res.Opened++
		}
		res.Bursts += s.Bursts
		res.Delivered += s.Delivered
		res.BitsSent += s.BitsSent
		res.BitsServed += s.BitsServed
		res.Changes += s.Changes
		if s.MaxDelayTicks > res.MaxDelayTicks {
			res.MaxDelayTicks = s.MaxDelayTicks
		}
		if s.MaxQueued > res.MaxQueued {
			res.MaxQueued = s.MaxQueued
		}
		if s.Released {
			res.Released++
		}
		res.Delivery.Merge(&s.Delivery)
		res.RTT.Merge(&s.RTT)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.Throughput = float64(res.BitsServed) / sec
	}
	return res, nil
}
