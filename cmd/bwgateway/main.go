// Command bwgateway runs the paper's IP-provider scenario as a live
// system: a TCP gateway divides a shared bandwidth pool among client
// sessions with one of the multi-session algorithms, while -k synthetic
// clients (an internal/load run, a connection each) stream bursty
// traffic at it in real time for -duration — or, with -duration 0, it
// serves external clients (e.g. a bwload swarm) until interrupted. The
// gateway is a load.StartHost host, as bwload's and experiment E21's
// are: a client that sends nothing for 30 s is disconnected and its
// slots are freed.
//
// With -admin the gateway exposes a live observability endpoint:
// Prometheus /metrics (including the allocation-changes counter, the
// paper's cost measure, and the dynbw_go_* runtime-health series),
// /healthz, a /sessions JSON snapshot, the allocation-event ring as
// JSONL on /events, sampled wire-path spans on /spans, the flight
// recorder's snapshot window on /snapshots, and net/http/pprof.
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops, live
// sessions get -grace to drain, the event ring and recorder window are
// flushed to stderr as JSONL, and the summary includes per-stage
// p50/p99 wire latencies over the timed messages and per-shard tick
// p99s.
//
// The gateway times 1 in -sample messages per connection stripe, plus
// every message a client sends behind a TRACE envelope: a timed
// message's wire-path stages (read/dispatch/apply/write) feed the
// dynbw_gateway_stage_ns histograms and its span goes into a ring of
// -spans entries. The other messages read no clock; the
// dynbw_gateway_messages_total counters count all of them, so the
// histograms' _count is messages timed, not messages handled, and
// -sample 1 times everything at roughly 0.6 µs a message. The flight
// recorder snapshots the whole registry every -record interval and
// freezes the window when OPENFAILs, dropped events, tick-budget
// overruns or contained panics start growing. A panic under an
// allocation round costs that shard the round, one in a connection
// handler costs the connection; both are counted
// (dynbw_gateway_panics_total) and logged with their stack, and the
// gateway goes on.
//
// Usage examples:
//
//	bwgateway -policy phased -k 4 -duration 2s
//	bwgateway -policy combined -k 8 -tick 2ms -duration 5s
//	bwgateway -k 64 -duration 0 -admin 127.0.0.1:8080   # serve until ^C
//	bwgateway -k 4096 -shards 8 -duration 0 -admin 127.0.0.1:8080
//	bwgateway -k 16 -shards 8 -route p2c -duration 2s
//
// With -shards > 1 the slot table is lock-striped: each shard owns its
// slot range, its own allocator over an equal bandwidth share, its own
// event-ring stripe and its own counter stripes, so exchanges on
// different shards never contend. /metrics merges the stripes at scrape
// time and adds a per-shard dynbw_gateway_shard_sessions gauge. An OPEN
// lands on its connection's home shard, or the next one with a free
// slot; with -route a placement policy chooses the shard instead
// (greedy least-loaded, DAR with trunk reservation, or
// power-of-two-choices), and routing activity shows up on /metrics as
// dynbw_route_placements_total, dynbw_route_blocked_total and the
// per-shard dynbw_route_link_load.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/gateway"
	"dynbw/internal/load"
	"dynbw/internal/obs"
	"dynbw/internal/route"
)

// startHost is load.StartHost; tests wrap it to see the HostConfig a
// flag set produces.
var startHost = load.StartHost

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bwgateway:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("bwgateway", flag.ContinueOnError)
	var (
		policy    = fs.String("policy", "phased", "phased|continuous|combined")
		addr      = fs.String("addr", "127.0.0.1:0", "TCP listen address for the wire protocol")
		k         = fs.Int("k", 4, "session slots / synthetic clients")
		bo        = fs.Int64("bo", 0, "offline bandwidth B_O (default 16*k)")
		do        = fs.Int64("do", 8, "offline delay bound D_O in ticks")
		tick      = fs.Duration("tick", time.Millisecond, "tick interval")
		duration  = fs.Duration("duration", time.Second, "how long clients stream (0: serve external clients until SIGINT/SIGTERM)")
		seed      = fs.Uint64("seed", 1, "client traffic seed")
		admin     = fs.String("admin", "", "admin HTTP address serving /metrics, /healthz, /sessions, /events, /debug/pprof (empty: disabled)")
		events    = fs.Int("events", obs.DefaultRingSize, "allocation-event ring capacity")
		grace     = fs.Duration("grace", 2*time.Second, "graceful-shutdown drain window for live sessions")
		routeName = fs.String("route", "", "place each OPEN on a shard by this policy: greedy|dar|p2c (empty: the connection's home shard first)")
		reserve   = fs.Int64("reserve", 1, "DAR trunk reservation in slot units")
		shards    = fs.Int("shards", 1, "lock-stripe the slot table across this many shards, each with its own allocator")
		spans     = fs.Int("spans", obs.DefaultSpanRingSize, "wire-path span ring capacity (0: no span ring; timed messages still feed the latency histograms)")
		sample    = fs.Int("sample", obs.DefaultSampleEvery, "time one message in this many per connection stripe: it feeds the stage/exchange latency histograms and the span ring (1: every message)")
		record    = fs.Duration("record", 500*time.Millisecond, "flight-recorder snapshot interval (0: recorder disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bo == 0 {
		*bo = int64(16 * *k)
	}

	reg := obs.NewRegistry()
	obs.RegisterGoRuntime(reg)
	ring := obs.NewShardedRing(*events, *shards)
	ring.Instrument(reg)
	var spanRing *obs.SpanRing
	if *spans > 0 {
		spanRing = obs.NewSpanRing(*spans, gateway.StageNames())
		spanRing.Instrument(reg)
	}
	n := max(*shards, 1)
	layout := fmt.Sprintf("%d slots", *k)
	if n > 1 {
		layout += fmt.Sprintf(" over %d shards", n)
	}
	var router *route.Policy
	if *routeName != "" {
		var err error
		if router, err = route.New(*routeName, route.Uniform(n, bw.Rate(*k/n)), bw.Rate(*reserve), *seed); err != nil {
			return err
		}
		router.SetObserver(ring)
		router.Instrument(reg)
		layout += fmt.Sprintf(" (route %s)", *routeName)
	}
	host, err := startHost(load.HostConfig{
		Addr:            *addr,
		Policy:          *policy,
		Slots:           *k,
		Shards:          n,
		BO:              bw.Rate(*bo),
		DO:              *do,
		Tick:            *tick,
		Router:          router,
		Registry:        reg,
		Observer:        ring,
		Spans:           spanRing,
		SpanSampleEvery: *sample,
		Log:             slog.New(slog.NewTextHandler(errw, nil)),
	})
	if err != nil {
		return err
	}
	defer host.Close()
	gw := host.GW
	var rec *obs.Recorder
	if *record > 0 {
		rec = obs.NewRecorder(obs.RecorderConfig{
			Registry: reg,
			Interval: *record,
			Triggers: []obs.Trigger{
				{Name: "openfail-spike", Key: "dynbw_gateway_open_fails_total"},
				{Name: "events-dropped", Key: "dynbw_events_dropped_total"},
				{Name: "tick-overrun", Key: "dynbw_gateway_tick_overruns_total"},
				{Name: "round-panic", Key: `dynbw_gateway_panics_total{where="round"}`},
				{Name: "handler-panic", Key: `dynbw_gateway_panics_total{where="handler"}`},
			},
		})
		rec.Start()
	}
	fmt.Fprintf(out, "gateway %s: %s, policy %s, tick %v\n", gw.Addr(), layout, *policy, *tick)

	if *admin != "" {
		adm, err := obs.StartAdmin(*admin, &obs.Admin{
			Registry:  reg,
			Ring:      ring,
			Sessions:  func() any { return gw.Sessions() },
			Spans:     spanRing,
			Snapshots: rec,
		})
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Fprintf(out, "admin http://%s: /metrics /healthz /sessions /events /spans /snapshots /debug/pprof\n", adm.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *duration > 0 {
		// Synthetic clients: each streams on/off bursts, 40% of its share
		// of B_O on average, for the duration or until a signal cuts the
		// run short, then waits out the grace window for its last bursts.
		res, err := load.Run(ctx, load.Config{
			Addr:         gw.Addr(),
			Sessions:     *k,
			Tick:         *tick,
			Duration:     *duration,
			Seed:         *seed,
			MeanRate:     max(*bo*2/(5*int64(*k)), 1),
			DrainTimeout: *grace,
		})
		if err == nil {
			err = errors.Join(res.Errs()...)
		}
		if err != nil {
			return err
		}
		del := res.Delivery.Latency()
		fmt.Fprintf(out, "clients:         %d bursts sent, %d delivered (p50/p99 %v / %v)\n",
			res.Bursts, res.Delivered, del.P50, del.P99)
	} else {
		fmt.Fprintln(out, "serving until SIGINT/SIGTERM")
		<-ctx.Done()
	}

	stats := gw.Shutdown(*grace)
	rec.Close()
	if err := ring.WriteJSONL(errw); err != nil {
		return fmt.Errorf("flush event ring: %w", err)
	}
	if rec != nil {
		if err := rec.WriteJSONL(errw); err != nil {
			return fmt.Errorf("flush flight recorder: %w", err)
		}
	}

	fmt.Fprintf(out, "ticks:           %d\n", stats.Ticks)
	fmt.Fprintf(out, "bits served:     %d (%d still queued, %d dropped with their sessions)\n", stats.Served, stats.Queued, stats.Closed)
	fmt.Fprintf(out, "session changes: %d\n", stats.SessionChanges)
	fmt.Fprintf(out, "peak total bw:   %d\n", stats.MaxTotalRate)
	fmt.Fprintf(out, "max delay:       %d ticks (%s guarantee: %d, +arrival alignment)\n",
		stats.MaxDelay, *policy, host.Promise.DA)
	fmt.Fprintf(out, "events traced:   %d (%d dropped)\n", ring.Total(), ring.Dropped())
	if spanRing != nil {
		fmt.Fprintf(out, "spans sampled:   %d (%d dropped)\n", spanRing.Total(), spanRing.Dropped())
	}
	printProfile(out, gw.Profile())
	return nil
}

// printProfile renders the gateway's latency profile for the shutdown
// summary: per-stage wire-path p50/p99 and whole-exchange p50/p99 over
// the timed messages (stage lines carry their own count), the
// per-shard allocation-tick p50/p99s over the timed rounds (1 in 13),
// and how many slots the last round had work for.
func printProfile(out io.Writer, p gateway.Profile) {
	if p.Exchange.Count() > 0 {
		fmt.Fprintf(out, "exchange p50/p99: %v / %v (%d timed messages)\n",
			time.Duration(p.Exchange.Quantile(0.50)), time.Duration(p.Exchange.Quantile(0.99)), p.Exchange.Count())
		for i, name := range p.StageNames {
			h := p.Stages[i]
			if h.Count() == 0 {
				continue
			}
			fmt.Fprintf(out, "  stage %-8s p50/p99: %v / %v (%d timed)\n",
				name, time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.99)), h.Count())
		}
	}
	for i, h := range p.ShardTicks {
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(out, "shard %d tick p50/p99: %v / %v (%d timed)\n",
			i, time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.99)), h.Count())
	}
	if p.TickRound.Count() > 0 {
		fmt.Fprintf(out, "active slots in the last round: %d\n", p.ActiveSlots)
	}
}
