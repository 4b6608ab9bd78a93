package harness

import (
	"context"
	"fmt"
	"time"

	"dynbw/internal/load"
)

// Soak is experiment E21: the live-path counterpart of E13's policy
// table. Instead of simulating traces through sim.Run, it boots one real
// gateway per multi-session policy, drives it with a concurrent client
// swarm over the TCP wire protocol (internal/load), and reports what the
// paper's cost measures look like end to end: renegotiation counts,
// delivery latency percentiles, and aggregate throughput.
//
// Unlike FIG1..E20 this experiment is wall-clock driven, so its numbers
// vary run to run; it lives in the Live() registry, outside the golden
// determinism check (results/README.md).
func Soak() (*Table, error) {
	return soak(soakConfig{Sessions: 64, Duration: 400 * time.Millisecond})
}

// soakConfig lets tests shrink the swarm; zero fields use Soak defaults.
type soakConfig struct {
	Sessions int
	Duration time.Duration
}

func soak(cfg soakConfig) (*Table, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 64
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 400 * time.Millisecond
	}
	t := &Table{
		ID:    "E21",
		Title: "Live gateway soak: swarm vs allocation policy",
		Note: "Wall-clock measurement over the real TCP protocol (not bit-exact " +
			"across runs): each policy self-hosts a gateway, a " +
			fmt.Sprintf("%d-session", cfg.Sessions) + " open-loop swarm sends on/off " +
			"bursts for " + cfg.Duration.String() + ", and every session must drain " +
			"and release its slot. Expected: all policies drain; phased and " +
			"continuous trade renegotiations against delivery latency as in E13.",
		Headers: []string{
			"policy", "sessions", "bursts", "delivered", "bits_served",
			"drained", "changes", "p50_ms", "p99_ms", "throughput_bits_s",
		},
	}
	for _, policy := range []string{"phased", "continuous", "combined"} {
		host, err := load.StartHost(load.HostConfig{
			Policy: policy,
			Slots:  cfg.Sessions,
			DO:     8,
			Tick:   500 * time.Microsecond,
		})
		if err != nil {
			return nil, fmt.Errorf("E21 %s: host: %w", policy, err)
		}
		res, err := load.Run(context.Background(), load.Config{
			Addr:     host.GW.Addr(),
			Sessions: cfg.Sessions,
			Mode:     load.OpenLoop,
			Duration: cfg.Duration,
			Ramp:     cfg.Duration / 8,
			Seed:     1,
		})
		host.Close()
		if err != nil {
			return nil, fmt.Errorf("E21 %s: %w", policy, err)
		}
		if errs := res.Errs(); len(errs) > 0 {
			return nil, fmt.Errorf("E21 %s: %d sessions failed, first: %w",
				policy, len(errs), errs[0])
		}
		lat := res.Delivery.Latency()
		t.AddRow(policy,
			itoa(res.Opened),
			itoa(res.Bursts), itoa(res.Delivered),
			itoa(res.BitsServed),
			fmt.Sprintf("%v", res.Drained()),
			itoa(res.Changes),
			f3(float64(lat.P50)/1e6), f3(float64(lat.P99)/1e6),
			f2(res.Throughput))
	}
	return t, nil
}

// Live returns the wall-clock experiments: registered and runnable like
// All(), but excluded from the golden-results determinism check because
// their tables are timing-dependent. TestGoldenResults runs them
// only under -update, which rewrites their results/ tables too.
func Live() []Experiment {
	return []Experiment{
		{ID: "E21", Title: "Live gateway soak", Reproduces: "E13 on the wire (live path)", Run: Soak},
	}
}
