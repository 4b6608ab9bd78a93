// Command bwload drives client sessions against a bandwidth gateway over
// its real TCP wire protocol and reports delivery latency percentiles,
// renegotiation counts, and aggregate throughput — the measurement rig
// for the live path (internal/load). It is one program with one flag
// set: every flag means the same thing in every run.
//
// It self-hosts a gateway per policy by default, or attaches to a
// running one with -addr.
//
// Usage examples:
//
//	bwload -sessions 256 -duration 2s
//	bwload -sessions 64 -policy phased,continuous,combined -mode closed
//	bwload -addr 127.0.0.1:9000 -sessions 32 -duration 5s
//	bwload -sessions 128 -out results            # also write results/bwload.{md,csv} and bwload_scrape.prom
//	bwload -sessions 64 -duration 10s -admin 127.0.0.1:8080   # scrape the run live
//	bwload -sessions 5000 -perconn 64 -ramp 1s   # a swarm larger than the fd limit
//	bwload -sessions 100000 -perconn 256 -mode hold -rate 1 -tick 50ms -duration 30s -shards 8 -gwtick 250ms -out results
//
// -perconn N rides N sessions on each multiplexed connection (default 1:
// a connection per session), so a run fits inside ordinary fd limits at
// any session count. -mode hold is open-loop pacing with the keep-warm
// workload of a session-scale soak: each session offers 128 ticks'
// worth of -rate in one burst every 128 ticks, a different 1/128 of the
// sessions each tick. The last example is that soak — 100k sessions over
// 391 connections held for 30 s. Every run is scraped halfway through
// its sending window; the scrape lands in -out beside the report.
// -shards lock-stripes the self-hosted gateway. With -trace N every Nth
// request per connection is wrapped in a TRACE envelope, forcing the
// gateway to record a client-tagged wire-path span (visible on the admin
// /spans endpoint).
package main

import (
	"context"
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
	"dynbw/internal/traffic"
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

// holdEvery is the period of -mode hold's keep-warm workload, in ticks.
const holdEvery = 128

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwload", flag.ContinueOnError)
	var (
		sessions = fs.Int("sessions", 64, "concurrent client sessions")
		perConn  = fs.Int("perconn", 1, "sessions per multiplexed connection")
		policies = fs.String("policy", "phased", "comma-separated allocation policies: phased|continuous|combined (self-hosted mode)")
		mode     = fs.String("mode", "open", "open (fixed send schedule) | closed (send after delivery) | hold (open, keep-warm workload: one burst per session every 128 ticks)")
		duration = fs.Duration("duration", time.Second, "per-connection sending window")
		ramp     = fs.Duration("ramp", 0, "spread session opens over this long")
		tick     = fs.Duration("tick", time.Millisecond, "client send/poll cadence")
		gwTick   = fs.Duration("gwtick", 500*time.Microsecond, "self-hosted gateway allocation tick")
		addr     = fs.String("addr", "", "attach to a running gateway instead of self-hosting")
		bo       = fs.Int64("bo", 0, "self-hosted offline bandwidth B_O (default 16*sessions)")
		do       = fs.Int64("do", 8, "self-hosted offline delay bound D_O in ticks")
		seed     = fs.Uint64("seed", 1, "base traffic seed (-mode hold: which tick of the 128 each session bursts on)")
		mean     = fs.Int64("rate", 32, "mean offered bits per session per client tick")
		outDir   = fs.String("out", "", "directory to write bwload.md, bwload.csv and the mid-run bwload_scrape.prom")
		admin    = fs.String("admin", "", "admin HTTP address serving live client+gateway metrics, events and spans during the run (empty: disabled)")
		shards   = fs.Int("shards", 0, "shard the self-hosted gateway's slot table (0/1: unsharded)")
		trace    = fs.Int("trace", 0, "TRACE-envelope every this many requests per connection so the gateway records client spans (0: off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *perConn < 1 {
		return fmt.Errorf("-perconn %d: want at least one session per connection", *perConn)
	}
	var (
		m   = load.OpenLoop
		gen func(id int) traffic.Generator // nil: load's seeded on/off bursts
		err error
	)
	if *mode == "hold" {
		warm := load.KeepWarm(bw.Bits(*mean*holdEvery), holdEvery)
		gen = func(id int) traffic.Generator { return warm(id + int(*seed%holdEvery)) }
	} else if m, err = load.ParseMode(*mode); err != nil {
		return fmt.Errorf("-mode %q: want open|closed|hold", *mode)
	}
	names := strings.Split(*policies, ",")
	if *addr != "" && len(names) > 1 {
		return fmt.Errorf("-addr attaches to one running gateway; use a single -policy label")
	}

	// One registry is shared by the client side and every self-hosted
	// gateway, so the mid-run scrape (and a live one, with -admin) sees
	// both sides. The event and span rings exist only with -admin, their
	// one reader: nothing builds events for no reader. The /sessions
	// snapshot tracks the current host.
	var (
		reg     = obs.NewRegistry()
		events  obs.Observer
		spans   *obs.SpanRing
		curHost atomic.Pointer[load.Host]
	)
	if *admin != "" {
		ring := obs.NewShardedRing(0, *shards)
		ring.Instrument(reg)
		events = ring
		spans = obs.NewSpanRing(0, gateway.StageNames())
		spans.Instrument(reg)
		adm, err := obs.StartAdmin(*admin, &obs.Admin{
			Registry: reg,
			Ring:     ring,
			Spans:    spans,
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
		fmt.Fprintf(out, "admin http://%s: /metrics /healthz /sessions /events /spans /debug/pprof\n", adm.Addr())
	}

	// The per-session CSV is streamed to its file run by run; the report
	// and the scrape are small and written at the end.
	var (
		md     strings.Builder
		scrape string
		csv    *os.File
		base   = filepath.Join(*outDir, "bwload")
	)
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
		if csv, err = os.Create(base + ".csv"); err != nil {
			return err
		}
		defer csv.Close()
	}
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
				Spans:    spans,
				Log:      slog.New(slog.NewTextHandler(os.Stderr, nil)),
			})
			if err != nil {
				return err
			}
			target = host.Addr()
			curHost.Store(host)
			fmt.Fprintf(out, "gateway %s: %d slots over %d shards, policy %s, tick %v\n",
				target, *sessions, max(*shards, 1), name, *gwTick)
		}
		res, err := load.Run(context.Background(), load.Config{
			Addr:         target,
			Sessions:     *sessions,
			PerConn:      *perConn,
			Mode:         m,
			Tick:         *tick,
			Duration:     *duration,
			Ramp:         *ramp,
			Seed:         *seed,
			Gen:          gen,
			MeanRate:     *mean,
			Registry:     reg,
			MetricsLabel: name,
			Observer:     events,
			TraceEvery:   *trace,
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
		if csv != nil {
			if err := res.CSV(csv, name, i == 0); err != nil {
				return fmt.Errorf("write csv: %w", err)
			}
		}
		scrape = res.MidScrape // one registry: the last scrape has every run's series
		if errs := res.Errs(); len(errs) > 0 {
			return fmt.Errorf("policy %s: %d sessions failed (%d open fails), first: %w",
				name, len(errs), res.OpenFails, errs[0])
		}
		if !res.Drained() {
			return fmt.Errorf("policy %s: run did not drain (%d of %d bits served)",
				name, res.BitsServed, res.BitsSent)
		}
	}

	if *outDir != "" {
		if err := os.WriteFile(base+".md", []byte(md.String()), 0o644); err != nil {
			return fmt.Errorf("write md: %w", err)
		}
		if err := os.WriteFile(base+"_scrape.prom", []byte(scrape), 0o644); err != nil {
			return fmt.Errorf("write scrape: %w", err)
		}
		fmt.Fprintf(out, "wrote %s.md, %s.csv and %s_scrape.prom\n", base, base, base)
	}
	return nil
}
