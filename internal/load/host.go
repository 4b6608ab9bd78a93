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
	GW     *gateway.Gateway
	ticker *time.Ticker

	closeOnce sync.Once
	stats     gateway.Stats
}

// StartHost listens on 127.0.0.1:0 with a real wall-clock ticker.
func StartHost(cfg HostConfig) (*Host, error) {
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("load: host slots = %d", cfg.Slots)
	}
	if cfg.Policy == "" {
		cfg.Policy = "phased"
	}
	if cfg.BO <= 0 {
		cfg.BO = bw.Rate(16 * cfg.Slots)
	}
	if cfg.DO <= 0 {
		cfg.DO = 8
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	switch {
	case cfg.IdleTimeout == 0:
		cfg.IdleTimeout = 30 * time.Second
	case cfg.IdleTimeout < 0:
		cfg.IdleTimeout = 0
	}
	gwCfg := gateway.Config{
		Addr:            "127.0.0.1:0",
		Slots:           cfg.Slots,
		IdleTimeout:     cfg.IdleTimeout,
		Observer:        cfg.Observer,
		Metrics:         cfg.Registry,
		Policy:          cfg.Policy,
		Spans:           cfg.Spans,
		SpanSampleEvery: cfg.SpanSampleEvery,
		TickBudget:      cfg.Tick,
		Log:             cfg.Log,
	}
	n := max(cfg.Shards, 1)
	if cfg.Slots%n != 0 {
		return nil, fmt.Errorf("load: %d slots do not divide across %d shards", cfg.Slots, n)
	}
	gwCfg.Shards = n
	gwCfg.ShardAllocs = make([]sim.MultiAllocator, n)
	for i := range gwCfg.ShardAllocs {
		alloc, err := NewPolicy(cfg.Policy, cfg.Slots/n, cfg.BO/bw.Rate(n), cfg.DO)
		if err != nil {
			return nil, err
		}
		// Each shard's allocator runs on that shard's tick worker; give it
		// the shard's ring stripe so emission never crosses lock domains.
		if o, ok := alloc.(obs.Observable); ok && cfg.Observer != nil {
			o.SetObserver(obs.StripeOf(cfg.Observer, i))
		}
		gwCfg.ShardAllocs[i] = alloc
	}
	ticker := time.NewTicker(cfg.Tick)
	gwCfg.Ticks = ticker.C
	gw, err := gateway.NewWithConfig(gwCfg)
	if err != nil {
		ticker.Stop()
		return nil, err
	}
	return &Host{GW: gw, ticker: ticker}, nil
}

// Addr returns the hosted gateway's address.
func (h *Host) Addr() string { return h.GW.Addr() }

// Close stops the ticker and the gateway, returning its final stats. It
// is idempotent; repeated calls return the first call's snapshot.
func (h *Host) Close() gateway.Stats {
	h.closeOnce.Do(func() {
		h.stats = h.GW.Close()
		h.ticker.Stop()
	})
	return h.stats
}
