package load

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/gateway"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// NewPolicy builds a multi-session allocator by CLI name, with the same
// defaults cmd/bwgateway uses: phased and continuous take the offline
// resources (B_O, D_O) directly, combined derives B_A = nextpow2(8*B_O).
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

// NewPolicies builds the allocators of a gateway of n shards: n
// NewPolicy allocators, each over k/n slots and bo/n bandwidth. The i-th runs on its own tick worker, so it emits
// through o's stripe i (obs.StripeOf) and emission never crosses lock
// domains; a nil o leaves the allocators silent.
func NewPolicies(name string, n, k int, bo bw.Rate, do bw.Tick, o obs.Observer) ([]sim.MultiAllocator, error) {
	if n < 1 || k%n != 0 {
		return nil, fmt.Errorf("load: %d slots do not divide %d ways", k, n)
	}
	allocs := make([]sim.MultiAllocator, n)
	for i := range allocs {
		alloc, err := NewPolicy(name, k/n, bo/bw.Rate(n), do)
		if err != nil {
			return nil, err
		}
		if a, ok := alloc.(obs.Observable); ok && o != nil {
			a.SetObserver(obs.StripeOf(o, i))
		}
		allocs[i] = alloc
	}
	return allocs, nil
}

// HostConfig parameterizes a self-hosted gateway for a swarm run.
type HostConfig struct {
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
	// IdleTimeout disconnects wedged clients (default 30s; <0 disables).
	IdleTimeout time.Duration
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

// Host is a self-hosted gateway plus its tick source — the "no external
// gateway" mode of cmd/bwload and experiment E21.
type Host struct {
	GW    *gateway.Gateway
	close func() gateway.Stats
}

// StartHost listens on 127.0.0.1:0 with a real wall-clock ticker.
func StartHost(cfg HostConfig) (*Host, error) {
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("load: host slots = %d", cfg.Slots)
	}
	orDefault(&cfg.Policy, "phased")
	orDefault(&cfg.BO, bw.Rate(16*cfg.Slots))
	orDefault(&cfg.DO, 8)
	orDefault(&cfg.Tick, time.Millisecond)
	switch {
	case cfg.IdleTimeout == 0:
		cfg.IdleTimeout = 30 * time.Second
	case cfg.IdleTimeout < 0:
		cfg.IdleTimeout = 0
	}
	shards := max(cfg.Shards, 1)
	allocs, err := NewPolicies(cfg.Policy, shards, cfg.Slots, cfg.BO, cfg.DO, cfg.Observer)
	if err != nil {
		return nil, err
	}
	ticker := time.NewTicker(cfg.Tick)
	gw, err := gateway.NewWithConfig(gateway.Config{
		Addr:            "127.0.0.1:0",
		Slots:           cfg.Slots,
		Shards:          shards,
		ShardAllocs:     allocs,
		Ticks:           ticker.C,
		IdleTimeout:     cfg.IdleTimeout,
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
	return &Host{GW: gw, close: sync.OnceValue(func() gateway.Stats {
		defer ticker.Stop()
		return gw.Close()
	})}, nil
}

// Addr returns the hosted gateway's address.
func (h *Host) Addr() string { return h.GW.Addr() }

// Close stops the gateway and its ticker, returning the gateway's final
// stats. It is idempotent; repeated calls return the first call's
// snapshot.
func (h *Host) Close() gateway.Stats { return h.close() }
