package load

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dynbw/internal/bw"
	"dynbw/internal/gateway"
	"dynbw/internal/obs"
	"dynbw/internal/trace"
	"dynbw/internal/traffic"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"open", OpenLoop, true},
		{"closed", ClosedLoop, true},
		{"bogus", "", false},
	} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if (Config{}).withDefaults().Mode != OpenLoop {
		t.Error("the zero Mode is not open loop")
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{Addr: "127.0.0.1:1", Sessions: 0}); err == nil {
		t.Error("sessions=0 accepted")
	}
	if _, err := Run(ctx, Config{Sessions: 1}); err == nil {
		t.Error("empty addr accepted")
	}
	// A dead gateway is not a configuration error: the run completes and
	// every session carries the dial failure.
	shortenDials(t)
	res, err := Run(ctx, Config{Addr: "127.0.0.1:1", Sessions: 4, PerConn: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 4 || len(res.Errs()) != 4 || res.Opened != 0 {
		t.Errorf("dead gateway: %d failed, %d opened, errs %v", res.Failed, res.Opened, res.Errs())
	}
}

// shortenDials retries an open once, and gives up on a dial after
// 200ms, for the rest of the test.
func shortenDials(t *testing.T) {
	retries, timeout := dialRetries, dialTimeout
	dialRetries, dialTimeout = 1, 200*time.Millisecond
	t.Cleanup(func() { dialRetries, dialTimeout = retries, timeout })
}

// startHost self-hosts a gateway for tests and returns its teardown.
func startHost(t *testing.T, policy string, slots, shards int, reg *obs.Registry) *Host {
	t.Helper()
	h, err := StartHost(HostConfig{Policy: policy, Slots: slots, Shards: shards, DO: 8, Tick: 500 * time.Microsecond, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// TestRunTable is the acceptance run of the one engine, over the real
// wire protocol against a 4-shard host: the swarm (a connection per
// session) and the multiplexed form are the same rows, in both pacing
// modes. Every session opens, delivers everything it sent, drains and
// releases; the gateway's own served total agrees. It runs with the race
// detector in CI.
func TestRunTable(t *testing.T) {
	sessions, duration := 200, 300*time.Millisecond
	if testing.Short() {
		sessions, duration = 40, 120*time.Millisecond
	}
	for _, perConn := range []int{1, 16} {
		for _, mode := range []Mode{OpenLoop, ClosedLoop} {
			t.Run(fmt.Sprintf("perconn%d_%s", perConn, mode), func(t *testing.T) {
				h := startHost(t, "phased", sessions, 4, nil)
				res, err := Run(context.Background(), Config{
					Addr:     h.GW.Addr(),
					Sessions: sessions,
					PerConn:  perConn,
					Mode:     mode,
					Tick:     2 * time.Millisecond,
					Duration: duration,
					Ramp:     duration / 8,
					Seed:     7,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range res.Errs() {
					t.Error(e)
				}
				if res.Opened != sessions || res.Released != sessions || res.OpenFails != 0 {
					t.Fatalf("opened %d, released %d of %d sessions (%d open fails)",
						res.Opened, res.Released, sessions, res.OpenFails)
				}
				if want := (sessions + perConn - 1) / perConn; res.Conns != want {
					t.Errorf("used %d connections, want %d", res.Conns, want)
				}
				if !res.Drained() {
					t.Errorf("run did not drain: served %d of %d bits", res.BitsServed, res.BitsSent)
				}
				if res.Bursts == 0 || res.Delivered != res.Bursts {
					t.Errorf("bursts %d, delivered %d", res.Bursts, res.Delivered)
				}
				if res.Delivery.Count() != int64(res.Bursts) || res.RTT.Count() == 0 || res.Open.Count() != int64(sessions) {
					t.Errorf("latency samples: %d deliveries of %d bursts, %d polls, %d opens of %d sessions",
						res.Delivery.Count(), res.Bursts, res.RTT.Count(), res.Open.Count(), sessions)
				}
				if res.Throughput <= 0 {
					t.Errorf("throughput %v", res.Throughput)
				}
				if st := h.Close(); st.Served != res.BitsServed {
					t.Errorf("gateway served %d, run observed %d", st.Served, res.BitsServed)
				}
			})
		}
	}
}

// TestSlotRecycling runs two consecutive swarms of the full slot count:
// the second can only open if the first's explicit releases freed every
// slot.
func TestSlotRecycling(t *testing.T) {
	const slots = 16
	h := startHost(t, "phased", slots, 1, nil)
	// No retries: round 2 must find the slots already free.
	shortenDials(t)
	var charged int64
	for round := 0; round < 2; round++ {
		res, err := Run(context.Background(), Config{
			Addr:     h.GW.Addr(),
			Sessions: slots,
			Mode:     OpenLoop,
			Tick:     time.Millisecond,
			Duration: 60 * time.Millisecond,
			Seed:     uint64(round),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Opened != slots || res.Released != slots {
			t.Fatalf("round %d: opened %d, released %d of %d",
				round, res.Opened, res.Released, slots)
		}
		// A session reads its own counters from zero, whoever held the
		// slot before it.
		for id, s := range res.PerSession {
			if s.FinalQueued == 0 && s.BitsServed != s.BitsSent {
				t.Errorf("round %d session %d (ID %#x): sent %d, gateway reports %d served",
					round, id, s.Slot, s.BitsSent, s.BitsServed)
			}
		}
		charged += res.Changes
	}
	// Each rate change the gateway made is charged to at most one session
	// (none, on a free slot), so the sessions' counts cannot add up to
	// more than it made — as they did when a tenant's count started at
	// its predecessor's.
	if made := int64(h.Close().SessionChanges); charged > made || charged == 0 {
		t.Errorf("sessions were charged %d rate changes in all; the gateway made %d", charged, made)
	}
}

// TestSwarmCustomGenerator exercises the Gen hook with a CBR stream:
// deterministic volume in, identical volume served.
func TestSwarmCustomGenerator(t *testing.T) {
	h := startHost(t, "phased", 4, 1, nil)
	res, err := Run(context.Background(), Config{
		Addr:     h.GW.Addr(),
		Sessions: 4,
		Mode:     OpenLoop,
		Tick:     2 * time.Millisecond,
		Duration: 100 * time.Millisecond,
		Gen: func(id int) traffic.Generator {
			return traffic.GeneratorFunc(traffic.CBR{Rate: 32}.Generate)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Errs() {
		t.Error(e)
	}
	ticks := int64(100 * time.Millisecond / (2 * time.Millisecond))
	wantPerSession := 32 * ticks
	if res.BitsSent != 4*wantPerSession {
		t.Errorf("bits sent %d, want %d", res.BitsSent, 4*wantPerSession)
	}
	if !res.Drained() {
		t.Error("scaled CBR run did not drain")
	}
}

// TestSoakHoldsSessionsOnShardedHost is the session-scale soak as a run
// of the one engine: many sessions to a connection, kept warm, on a
// sharded host, scraped mid-window with every session open.
func TestSoakHoldsSessionsOnShardedHost(t *testing.T) {
	slots, perConn := 1024, 64
	window := 400 * time.Millisecond
	if testing.Short() {
		slots, perConn = 128, 16
		window = 150 * time.Millisecond
	}
	reg := obs.NewRegistry()
	h := startHost(t, "phased", slots, 4, reg)
	cfg := Config{
		Addr:     h.GW.Addr(),
		Sessions: slots,
		PerConn:  perConn,
		Tick:     10 * time.Millisecond,
		Duration: window,
		Gen:      KeepWarm(64, 8),
		Registry: reg,
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Errs() {
		t.Error(e)
	}
	if res.Opened != slots {
		t.Fatalf("held %d of %d sessions", res.Opened, slots)
	}
	if want := (slots + perConn - 1) / perConn; res.Conns != want {
		t.Errorf("used %d conns, want %d", res.Conns, want)
	}
	if res.OpenFails != 0 {
		t.Errorf("%d open fails against an exactly-sized slot table", res.OpenFails)
	}
	if open := res.Open.Latency(); open.Count != int64(slots) || open.P99 <= 0 {
		t.Errorf("open latency summary %+v", open)
	}
	if res.RTT.Count() == 0 {
		t.Error("no stats polls recorded during the window")
	}
	if res.MidScrape == "" {
		t.Fatal("no mid-run scrape captured")
	}
	// The mid-run scrape must show every session open, spread over the
	// shard gauges, with the cost-measure counter live.
	for _, want := range []string{
		fmt.Sprintf("dynbw_gateway_active_sessions %d\n", slots),
		fmt.Sprintf("dynbw_gateway_shard_sessions{shard=\"3\"} %d\n", slots/4),
		"dynbw_gateway_allocation_changes_total",
	} {
		if !strings.Contains(res.MidScrape, want) {
			t.Errorf("mid-run scrape missing %q", want)
		}
	}

	// After the run's orderly teardown the whole table must be free
	// again: a fresh run over the same slots opens without OPENFAIL.
	cfg.Duration, cfg.Registry = 50*time.Millisecond, nil
	again, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.OpenFails != 0 || again.Opened != slots {
		t.Errorf("slots not recycled: %d fails, %d held", again.OpenFails, again.Opened)
	}
}

// TestSoakBatchedPlateau: a tick's sends and polls are BATCH wire frames
// whatever their number, and the gateway counts them.
func TestSoakBatchedPlateau(t *testing.T) {
	slots, perConn := 256, 32
	if testing.Short() {
		slots, perConn = 64, 16
	}
	reg := obs.NewRegistry()
	h := startHost(t, "phased", slots, 4, reg)
	res, err := Run(context.Background(), Config{
		Addr:     h.GW.Addr(),
		Sessions: slots,
		PerConn:  perConn,
		Tick:     10 * time.Millisecond,
		Duration: 200 * time.Millisecond,
		Gen:      KeepWarm(64, 4),
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Opened != slots {
		t.Fatalf("held %d of %d sessions", res.Opened, slots)
	}
	if res.BitsSent == 0 {
		t.Error("the window sent nothing")
	}
	if res.RTT.Count() == 0 {
		t.Error("no batched stats polls recorded")
	}
	if !strings.Contains(res.MidScrape, `dynbw_gateway_messages_total{type="batch"}`) {
		t.Error("mid-run scrape missing the batch message counter")
	}
	if strings.Contains(res.MidScrape, `dynbw_gateway_messages_total{type="batch"} 0`) {
		t.Error("gateway counted zero BATCH frames during the window")
	}
}

// TestRunGatewayDiesNoHang: a gateway that dies mid-run ends the run, with
// the cause. The failed exchange ends its connection's loop at once —
// no spinning on a poisoned Mux to the end of the window, no drain wait —
// and every session on it names the exchange that failed.
func TestRunGatewayDiesNoHang(t *testing.T) {
	const sessions = 32
	duration, drain := 3*time.Second, 3*time.Second
	h := startHost(t, "phased", sessions, 4, nil)
	time.AfterFunc(duration/3, func() { h.Close() })
	done := make(chan *Result, 1)
	start := time.Now()
	go func() {
		res, err := Run(context.Background(), Config{
			Addr:         h.GW.Addr(),
			Sessions:     sessions,
			PerConn:      8,
			Tick:         2 * time.Millisecond,
			Duration:     duration,
			DrainTimeout: drain,
		})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var res *Result
	select {
	case res = <-done:
	case <-time.After(duration + drain):
		t.Fatal("Run still going a full window and drain after its gateway died")
	}
	if took := time.Since(start); took > duration*2/3 {
		t.Errorf("Run took %v; the gateway died at %v", took, duration/3)
	}
	if res == nil {
		t.Fatal("no result")
	}
	if res.Failed != sessions || res.Released != 0 {
		t.Errorf("%d of %d sessions failed, %d released", res.Failed, sessions, res.Released)
	}
	for id, s := range res.PerSession {
		if s.Err == nil || !(strings.Contains(s.Err.Error(), "stats") || strings.Contains(s.Err.Error(), "send")) {
			t.Errorf("session %d: error %v does not name the failed exchange", id, s.Err)
		}
	}
}

// TestKeepWarm: sessions a period apart replay the same realized trace,
// and every session offers its bits once a period.
func TestKeepWarm(t *testing.T) {
	const bits, every, ticks = 64, 8, 40
	gen := KeepWarm(bits, every)
	traces := make(map[*trace.Trace]bool)
	for id := 0; id < 5*every; id++ {
		tr := gen(id).Generate(ticks)
		if tr != gen(id+every).Generate(ticks) {
			t.Fatalf("sessions %d and %d replay different traces", id, id+every)
		}
		traces[tr] = true
		for at := bw.Tick(0); at < ticks; at++ {
			want := bw.Bits(0)
			if int(at)%every == id%every {
				want = bits
			}
			if got := tr.At(at); got != want {
				t.Fatalf("session %d offers %d bits at tick %d, want %d", id, got, at, want)
			}
		}
	}
	if len(traces) != every {
		t.Errorf("%d sessions hold %d traces, want %d", 5*every, len(traces), every)
	}
	if n := gen(0).Generate(ticks / 2).Len(); n != ticks/2 {
		t.Errorf("a second window of %d ticks got a trace of %d", ticks/2, n)
	}
}

// TestSessionResultIsScalars bounds what a run holds per session: at the
// 100k sessions the soak exists for, 128 bytes is 12.8 MB where one
// 8 KB metrics.Histogram in the struct would be 800 MB.
func TestSessionResultIsScalars(t *testing.T) {
	if size := unsafe.Sizeof(SessionResult{}); size > 128 {
		t.Errorf("SessionResult is %d bytes, want <= 128", size)
	}
	if size := unsafe.Sizeof(session{}); size > 16 {
		t.Errorf("session is %d bytes, want <= 16", size)
	}
}

// TestReportRendering pins both renderings of a hand-built Result.
func TestReportRendering(t *testing.T) {
	res := &Result{
		Sessions: 2, Conns: 1, Opened: 1, Failed: 1, OpenFails: 3,
		Mode: ClosedLoop, Tick: 2 * time.Millisecond, Duration: time.Second, Elapsed: 1234567 * time.Microsecond,
		Bursts: 10, Delivered: 9, BitsSent: 640, BitsServed: 600, Throughput: 486.2,
		Changes: 7, MaxDelayTicks: 12, MaxQueued: 128, Released: 1,
		PerSession: []SessionResult{
			{Slot: 5, Released: true, Bursts: 10, Delivered: 9, BitsSent: 640, BitsServed: 600,
				FinalQueued: 40, MaxQueued: 128, Changes: 7, MaxDelayTicks: 12, MaxDelivery: 2500 * time.Microsecond},
			{Err: fmt.Errorf("dial: no route")},
		},
	}
	res.Open.Observe(int64(time.Millisecond))
	res.Delivery.Observe(int64(4 * time.Millisecond))
	const wantMD = `## bwload: combined

2 sessions over 1 connections, mode closed, tick 2ms, send window 1s, wall clock 1.235s

| metric                           | value |
|----------------------------------|-------|
| sessions opened / failed         | 1 / 1 |
| open fails (retried)             | 3 |
| sessions released                | 1 |
| bursts sent / delivered          | 10 / 9 |
| bits sent / served               | 640 / 600 |
| drained                          | false |
| throughput (bits/s)              | 486 |
| session changes (renegotiations) | 7 |
| max queue depth (bits)           | 128 |
| max gateway delay (ticks)        | 12 |

| latency (ms)    | count | p50 | p90 | p99 | max |
|-----------------|-------|-----|-----|-----|-----|
| session open    | 1 | 1.000 | 1.000 | 1.000 | 1.000 |
| burst delivery  | 1 | 4.000 | 4.000 | 4.000 | 4.000 |
| stats roundtrip | 0 | 0.000 | 0.000 | 0.000 | 0.000 |
`
	if got := res.Markdown("combined"); got != wantMD {
		t.Errorf("Markdown:\n%s\nwant:\n%s", got, wantMD)
	}
	const wantCSV = `label,session,slot,ok,released,bursts,delivered,bits_sent,bits_served,final_queued,max_queued,changes,max_delay_ticks,max_delivery_ms
combined,0,5,true,true,10,9,640,600,40,128,7,12,2.500
combined,1,0,false,false,0,0,0,0,0,0,0,0,0.000
`
	var csv strings.Builder
	if err := res.CSV(&csv, "combined", true); err != nil || csv.String() != wantCSV {
		t.Errorf("CSV (%v):\n%s\nwant:\n%s", err, csv.String(), wantCSV)
	}
	csv.Reset()
	if err := res.CSV(&csv, "combined", false); err != nil || csv.String() != strings.TrimPrefix(wantCSV, csvHeader) {
		t.Errorf("CSV without header (%v):\n%s", err, csv.String())
	}
}

func TestNewPolicyUnknown(t *testing.T) {
	if _, err := NewPolicy("nope", 4, 64, 8); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestStartHostShardValidation(t *testing.T) {
	if _, err := StartHost(HostConfig{Policy: "phased", Slots: 10, Shards: 4, DO: 8, Tick: time.Millisecond}); err == nil {
		t.Error("10 slots over 4 shards accepted")
	}
}

// TestHostDropsSilentClient: a host disconnects a client that opens a
// session and then says nothing, and its slot is free again, so a
// silent tenant cannot hold its slots for the life of the process.
func TestHostDropsSilentClient(t *testing.T) {
	defer func(d time.Duration) { idleTimeout = d }(idleTimeout)
	idleTimeout = 200 * time.Millisecond
	h := startHost(t, "phased", 1, 1, nil)
	silent, err := gateway.DialMux(h.GW.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	id, err := silent.Open()
	if err != nil {
		t.Fatal(err)
	}
	other, err := gateway.DialMux(h.GW.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.Open(); !errors.Is(err, gateway.ErrSessionLimit) {
		t.Fatalf("second Open on a 1-slot host: %v, want ErrSessionLimit", err)
	}
	// Each retry is traffic, so only the first client goes silent.
	for deadline := time.Now().Add(10 * idleTimeout); ; time.Sleep(idleTimeout / 10) {
		_, err := other.Open()
		if err == nil {
			break
		}
		if !errors.Is(err, gateway.ErrSessionLimit) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("the silent client's slot is still held after %v", 10*idleTimeout)
		}
	}
	if _, err := silent.Stats(id); err == nil {
		t.Error("the silent client's connection still answers")
	}
}
