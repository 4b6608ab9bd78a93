// Command bwload drives a client swarm against a bandwidth gateway over
// its real TCP wire protocol and reports delivery latency percentiles,
// renegotiation counts, and aggregate throughput — the measurement rig
// for the live path (internal/load).
//
// It self-hosts a gateway per policy by default, or attaches to a
// running one with -addr.
//
// Usage examples:
//
//	bwload -sessions 256 -duration 2s
//	bwload -sessions 64 -policy phased,continuous,combined -mode closed
//	bwload -addr 127.0.0.1:9000 -sessions 32 -duration 5s
//	bwload -sessions 128 -out results            # also write results/bwload.{md,csv}
//	bwload -sessions 64 -duration 10s -admin 127.0.0.1:8080   # scrape the soak live
//	bwload -soak 100000 -shards 8 -gwtick 250ms -hold 30s -out results
//
// With -soak N the swarm is replaced by a session-scale soak: N sessions
// are opened over multiplexed connections (-perconn sessions each, so
// the run fits inside ordinary fd limits), held through a -hold plateau
// with sparse traffic, and scraped mid-plateau; the scrape and a summary
// land in -out. -shards lock-stripes the self-hosted gateway. With
// -trace N every Nth request per connection is wrapped in a TRACE
// envelope, forcing the gateway to record a client-tagged wire-path
// span (visible on the admin /spans endpoint). With -batch N the
// plateau's sends and stats polls are coalesced into BATCH wire frames
// of up to N messages each (one write per frame instead of per
// message), exercising the gateway's pipelined batch path:
//
//	bwload -soak 100000 -shards 8 -hold 30s -batch 64 -out results
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/gateway"
	"dynbw/internal/load"
	"dynbw/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwload:", err)
		os.Exit(1)
	}
}

// startHost is load.StartHost; tests wrap it to see the HostConfig a
// flag set produces.
var startHost = load.StartHost

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwload", flag.ContinueOnError)
	var (
		sessions = fs.Int("sessions", 64, "concurrent client sessions")
		policies = fs.String("policy", "phased", "comma-separated allocation policies: phased|continuous|combined (self-hosted mode)")
		mode     = fs.String("mode", "open", "open (fixed send schedule) | closed (send after delivery)")
		duration = fs.Duration("duration", time.Second, "per-session sending window")
		ramp     = fs.Duration("ramp", 0, "spread session starts over this long")
		tick     = fs.Duration("tick", time.Millisecond, "client send/poll cadence")
		gwTick   = fs.Duration("gwtick", 500*time.Microsecond, "self-hosted gateway allocation tick")
		addr     = fs.String("addr", "", "attach to a running gateway instead of self-hosting")
		bo       = fs.Int64("bo", 0, "self-hosted offline bandwidth B_O (default 16*sessions)")
		do       = fs.Int64("do", 8, "self-hosted offline delay bound D_O in ticks")
		seed     = fs.Uint64("seed", 1, "base traffic seed")
		mean     = fs.Int64("rate", 32, "mean offered bits per client tick")
		outDir   = fs.String("out", "", "directory to write bwload.md and bwload.csv reports")
		admin    = fs.String("admin", "", "admin HTTP address serving live swarm+gateway metrics during the run (empty: disabled)")
		soak     = fs.Int("soak", 0, "hold this many multiplexed sessions open instead of running the swarm (0: off)")
		perConn  = fs.Int("perconn", 256, "sessions per multiplexed connection in -soak mode")
		hold     = fs.Duration("hold", 10*time.Second, "plateau duration in -soak mode")
		shards   = fs.Int("shards", 0, "shard the self-hosted gateway's slot table (0/1: unsharded)")
		trace    = fs.Int("trace", 0, "in -soak mode, TRACE-envelope every this many requests per connection so the gateway records client spans (0: off)")
		batch    = fs.Int("batch", 0, "in -soak mode, coalesce plateau traffic into BATCH wire frames of up to this many messages (0/1: one message per write)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := strings.Split(*policies, ",")
	if *soak > 0 {
		if len(names) > 1 {
			return fmt.Errorf("-soak runs one gateway; use a single -policy label")
		}
		return runSoak(out, soakOpts{
			policy: strings.TrimSpace(names[0]), addr: *addr, sessions: *soak,
			perConn: *perConn, hold: *hold, shards: *shards,
			bo: *bo, do: *do, gwTick: *gwTick, admin: *admin, outDir: *outDir,
			trace: *trace, batch: *batch,
		})
	}
	m, err := load.ParseMode(*mode)
	if err != nil {
		return err
	}
	if *addr != "" && len(names) > 1 {
		return fmt.Errorf("-addr attaches to one running gateway; use a single -policy label")
	}

	// With -admin, one registry and event ring are shared by the swarm
	// and every self-hosted gateway, so a scrape mid-run sees both sides
	// of the soak. The /sessions snapshot tracks the current host.
	var (
		reg     *obs.Registry
		events  obs.Observer // nil without -admin: nothing builds events for no reader
		curHost atomic.Pointer[load.Host]
	)
	if *admin != "" {
		reg = obs.NewRegistry()
		ring := obs.NewShardedRing(0, *shards)
		events = ring
		adm, err := obs.StartAdmin(*admin, &obs.Admin{
			Registry: reg,
			Ring:     ring,
			Sessions: func() any {
				if h := curHost.Load(); h != nil {
					return h.GW.Sessions()
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Fprintf(out, "admin http://%s: /metrics /healthz /sessions /events /debug/pprof\n", adm.Addr())
	}

	var md, csv strings.Builder
	for i, name := range names {
		name = strings.TrimSpace(name)
		target := *addr
		var host *load.Host
		if target == "" {
			host, err = startHost(load.HostConfig{
				Policy:   name,
				Slots:    *sessions,
				Shards:   *shards,
				BO:       bw.Rate(*bo),
				DO:       *do,
				Tick:     *gwTick,
				Registry: reg,
				Observer: events,
				Log:      slog.New(slog.NewTextHandler(os.Stderr, nil)),
			})
			if err != nil {
				return err
			}
			target = host.Addr()
			curHost.Store(host)
			fmt.Fprintf(out, "gateway %s: %d slots, policy %s, tick %v\n", target, *sessions, name, *gwTick)
		}
		res, err := load.Run(load.Config{
			Addr:         target,
			Sessions:     *sessions,
			Mode:         m,
			Tick:         *tick,
			Duration:     *duration,
			Ramp:         *ramp,
			Seed:         *seed,
			MeanRate:     *mean,
			Registry:     reg,
			MetricsLabel: name,
			Observer:     events,
		})
		if host != nil {
			host.Close()
		}
		if err != nil {
			return err
		}
		report := res.Markdown(name)
		fmt.Fprintln(out, report)
		md.WriteString(report)
		md.WriteString("\n")
		csv.WriteString(res.CSV(name, i == 0))
		if errs := res.Errs(); len(errs) > 0 {
			return fmt.Errorf("policy %s: %d sessions failed, first: %w", name, len(errs), errs[0])
		}
		if !res.Drained() {
			return fmt.Errorf("policy %s: swarm did not drain (%d of %d bits served)",
				name, res.BitsServed, res.BitsSent)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
		base := filepath.Join(*outDir, "bwload")
		if err := os.WriteFile(base+".md", []byte(md.String()), 0o644); err != nil {
			return fmt.Errorf("write md: %w", err)
		}
		if err := os.WriteFile(base+".csv", []byte(csv.String()), 0o644); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
		fmt.Fprintf(out, "wrote %s.md and %s.csv\n", base, base)
	}
	return nil
}

// soakOpts carries the -soak flag set into runSoak.
type soakOpts struct {
	policy   string
	addr     string
	sessions int
	perConn  int
	hold     time.Duration
	shards   int
	bo, do   int64
	gwTick   time.Duration
	admin    string
	outDir   string
	trace    int
	batch    int
}

// runSoak is bwload's -soak mode: self-host (or attach to) a gateway,
// open opts.sessions multiplexed sessions, hold them through the
// plateau, and report open/stats-poll latency plus the mid-plateau
// metrics scrape.
func runSoak(out io.Writer, opts soakOpts) error {
	reg := obs.NewRegistry()
	ring := obs.NewShardedRing(0, opts.shards)
	ring.Instrument(reg)
	spanRing := obs.NewSpanRing(0, gateway.StageNames())
	spanRing.Instrument(reg)

	target := opts.addr
	var host *load.Host
	if target == "" {
		var err error
		host, err = startHost(load.HostConfig{
			Policy:   opts.policy,
			Slots:    opts.sessions,
			Shards:   opts.shards,
			BO:       bw.Rate(opts.bo),
			DO:       opts.do,
			Tick:     opts.gwTick,
			Registry: reg,
			Observer: ring,
			Spans:    spanRing,
			Log:      slog.New(slog.NewTextHandler(os.Stderr, nil)),
		})
		if err != nil {
			return err
		}
		target = host.Addr()
		fmt.Fprintf(out, "gateway %s: %d slots over %d shards, policy %s, tick %v\n",
			target, opts.sessions, max(opts.shards, 1), opts.policy, opts.gwTick)
	}
	if opts.admin != "" {
		adm, err := obs.StartAdmin(opts.admin, &obs.Admin{
			Registry: reg,
			Ring:     ring,
			Sessions: func() any {
				if host != nil {
					return host.GW.Sessions()
				}
				return nil
			},
			Spans: spanRing,
		})
		if err != nil {
			if host != nil {
				host.Close()
			}
			return err
		}
		defer adm.Close()
		fmt.Fprintf(out, "admin http://%s: /metrics /healthz /sessions /events /spans /debug/pprof\n", adm.Addr())
	}

	res, err := load.Soak(load.SoakConfig{
		Addr:       target,
		Sessions:   opts.sessions,
		PerConn:    opts.perConn,
		Hold:       opts.hold,
		Registry:   reg,
		TraceEvery: opts.trace,
		Batch:      opts.batch,
	})
	if host != nil {
		defer host.Close()
	}
	if err != nil {
		return err
	}

	report := soakMarkdown(opts.policy, res)
	fmt.Fprintln(out, report)
	if res.Sessions < opts.sessions {
		return fmt.Errorf("soak held %d of %d sessions (%d open fails)", res.Sessions, opts.sessions, res.OpenFails)
	}
	if opts.outDir != "" {
		if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
		base := filepath.Join(opts.outDir, "bwload_soak")
		if err := os.WriteFile(base+".md", []byte(report+"\n"), 0o644); err != nil {
			return fmt.Errorf("write md: %w", err)
		}
		if err := os.WriteFile(base+"_scrape.prom", []byte(res.MidScrape), 0o644); err != nil {
			return fmt.Errorf("write scrape: %w", err)
		}
		fmt.Fprintf(out, "wrote %s.md and %s_scrape.prom\n", base, base)
	}
	return nil
}

// soakMarkdown renders the soak accounting in the same style as the
// swarm's per-policy report.
func soakMarkdown(policy string, r load.SoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## soak %s\n\n", policy)
	fmt.Fprintf(&b, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| sessions held | %d |\n", r.Sessions)
	fmt.Fprintf(&b, "| conns | %d |\n", r.Conns)
	fmt.Fprintf(&b, "| open fails | %d |\n", r.OpenFails)
	fmt.Fprintf(&b, "| ramp | %v |\n", r.Ramp.Round(time.Millisecond))
	fmt.Fprintf(&b, "| open p50/p99/max | %v / %v / %v |\n", r.Open.P50, r.Open.P99, r.Open.Max)
	fmt.Fprintf(&b, "| plateau | %v |\n", r.Plateau.Round(time.Millisecond))
	fmt.Fprintf(&b, "| stats polls | %d |\n", r.StatsPoll.Count)
	fmt.Fprintf(&b, "| stats p50/p99/max | %v / %v / %v |\n", r.StatsPoll.P50, r.StatsPoll.P99, r.StatsPoll.Max)
	fmt.Fprintf(&b, "| bits sent on plateau | %d |\n", r.Sent)
	return b.String()
}
