package load

import (
	"fmt"
	"log/slog"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/gateway"
	"dynbw/internal/obs"
	"dynbw/internal/route"
	"dynbw/internal/sim"
)

// NewPolicy builds a multi-session allocator by CLI name, with the
// defaults every hosted gateway uses: phased and continuous take the
// offline resources (B_O, D_O) directly, combined derives
// B_A = nextpow2(8*B_O).
func NewPolicy(name string, k int, bo bw.Rate, do bw.Tick) (sim.MultiAllocator, error) {
	switch name {
	case "phased":
		return core.NewPhased(core.MultiParams{K: k, BO: bo, DO: do})
	case "continuous":
		return core.NewContinuous(core.MultiParams{K: k, BO: bo, DO: do})
	case "combined":
		ba := bw.NextPow2(8 * bo)
		return core.NewCombined(core.CombinedParams{K: k, BA: ba, DO: do, UO: 0.5, W: 2 * do})
	default:
		return nil, fmt.Errorf("load: unknown policy %q (want phased|continuous|combined)", name)
	}
}

// idleTimeout is how long a host lets a client sit silent before it drops
// it and frees its slots: clients may be untrusted. Tests shorten it.
var idleTimeout = 30 * time.Second

// HostConfig parameterizes a self-hosted gateway.
type HostConfig struct {
	// Addr is the TCP listen address (default 127.0.0.1:0).
	Addr string
	// Policy is phased|continuous|combined.
	Policy string
	// Slots is the session slot count k.
	Slots int
	// Shards shards the hosted gateway's slot table (zero means one):
	// Slots must divide evenly and each shard gets its own Policy
	// allocator over Slots/Shards slots with BO/Shards bandwidth.
	Shards int
	// BO is the offline bandwidth pool (default 16*Slots); DO the
	// offline delay bound in ticks (default 8).
	BO bw.Rate
	DO bw.Tick
	// Tick is the gateway's allocation interval (default 1ms).
	Tick time.Duration
	// Router, when non-nil, places each OPEN on a shard (gateway.Config).
	Router *route.Policy
	// Registry, when non-nil, receives the gateway's live metrics
	// (labeled with Policy); Observer receives allocation events from
	// both the policies and the gateway — an *obs.Ring with one stripe
	// per shard keeps each shard's emission on its own stripe.
	Registry *obs.Registry
	Observer obs.Observer
	// Spans, when non-nil, receives the gateway's sampled wire-path
	// spans (1 in SpanSampleEvery messages, plus every client TRACE
	// envelope).
	Spans           *obs.SpanRing
	SpanSampleEvery int
	// Log receives the gateway's rate-limited error diagnostics.
	Log *slog.Logger
}

// Host is a self-hosted gateway plus its tick source: cmd/bwgateway's
// gateway, and the "no external gateway" mode of cmd/bwload and
// experiment E21.
type Host struct {
	GW *gateway.Gateway
	// Promise is what each shard's policy guarantees.
	Promise sim.Promise
	ticker  *time.Ticker
}

// StartHost listens on cfg.Addr with a real wall-clock ticker, and
// disconnects a client silent for idleTimeout.
func StartHost(cfg HostConfig) (*Host, error) {
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("load: host slots = %d", cfg.Slots)
	}
	orDefault(&cfg.Addr, "127.0.0.1:0")
	orDefault(&cfg.Policy, "phased")
	orDefault(&cfg.BO, bw.Rate(16*cfg.Slots))
	orDefault(&cfg.DO, 8)
	orDefault(&cfg.Tick, time.Millisecond)
	shards := max(cfg.Shards, 1)
	if cfg.Slots%shards != 0 {
		return nil, fmt.Errorf("load: %d slots do not divide %d ways", cfg.Slots, shards)
	}
	// One allocator per shard, over its share of the slots and of BO. The
	// i-th runs on its own tick worker, so it emits through the observer's
	// stripe i (obs.StripeOf) and emission never crosses lock domains.
	allocs := make([]sim.MultiAllocator, shards)
	for i := range allocs {
		alloc, err := NewPolicy(cfg.Policy, cfg.Slots/shards, cfg.BO/bw.Rate(shards), cfg.DO)
		if err != nil {
			return nil, err
		}
		if a, ok := alloc.(obs.Observable); ok && cfg.Observer != nil {
			a.SetObserver(obs.StripeOf(cfg.Observer, i))
		}
		allocs[i] = alloc
	}
	ticker := time.NewTicker(cfg.Tick)
	gw, err := gateway.NewWithConfig(gateway.Config{
		Addr:            cfg.Addr,
		Slots:           cfg.Slots,
		Shards:          shards,
		ShardAllocs:     allocs,
		Router:          cfg.Router,
		Ticks:           ticker.C,
		IdleTimeout:     idleTimeout,
		Observer:        cfg.Observer,
		Metrics:         cfg.Registry,
		Policy:          cfg.Policy,
		Spans:           cfg.Spans,
		SpanSampleEvery: cfg.SpanSampleEvery,
		TickBudget:      cfg.Tick,
		Log:             cfg.Log,
	})
	if err != nil {
		ticker.Stop()
		return nil, err
	}
	return &Host{GW: gw, Promise: allocs[0].(sim.Promiser).Promise(), ticker: ticker}, nil
}

// Close stops the gateway and its ticker, returning the gateway's final
// stats. It is idempotent; repeated calls return the first call's
// snapshot.
func (h *Host) Close() gateway.Stats {
	defer h.ticker.Stop()
	return h.GW.Close()
}
