package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dynbw/internal/load"
	"dynbw/internal/obs"
)

func TestRunSmallSwarm(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-sessions", "4", "-duration", "100ms", "-policy", "phased",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"bwload: phased", "p50", "throughput", "drained"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunSoakShardedWritesScrape is the session-scale soak's spelling in
// the one flag set — many sessions a connection, held with the keep-warm
// workload on a sharded host — writing the report and the mid-run scrape.
func TestRunSoakShardedWritesScrape(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{
		"-sessions", "128", "-shards", "4", "-perconn", "32", "-mode", "hold", "-rate", "1",
		"-tick", "5ms", "-duration", "200ms", "-gwtick", "2ms", "-trace", "2", "-out", dir,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"128 slots over 4 shards", "128 sessions over 4 connections",
		"| sessions opened / failed         | 128 / 0 |", "| open fails (retried)             | 0 |",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	scrape, err := os.ReadFile(filepath.Join(dir, "bwload_scrape.prom"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dynbw_gateway_active_sessions 128\n",
		"dynbw_gateway_shard_sessions{shard=\"3\"} 32\n",
		"dynbw_gateway_allocation_changes_total",
		`dynbw_gateway_messages_total{type="batch"}`,
		`dynbw_load_sessions_active{policy="phased"} 128`,
	} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("mid-run scrape missing %q", want)
		}
	}
	for _, name := range []string{"bwload.md", "bwload.csv"} {
		if _, err := os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}
}

func TestRunMultiPolicyWritesReports(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{
		"-sessions", "2", "-duration", "60ms",
		"-policy", "phased,continuous", "-mode", "closed",
		"-out", dir,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	md, err := os.ReadFile(filepath.Join(dir, "bwload.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bwload: phased", "bwload: continuous"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("bwload.md missing %q", want)
		}
	}
	csv, err := os.ReadFile(filepath.Join(dir, "bwload.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	// Header + 2 sessions per policy.
	if want := 1 + 2*2; len(lines) != want {
		t.Errorf("bwload.csv has %d lines, want %d:\n%s", len(lines), want, csv)
	}
	if !strings.HasPrefix(lines[0], "label,session,") {
		t.Errorf("csv header = %q", lines[0])
	}
}

func TestRunAttachMode(t *testing.T) {
	host, err := load.StartHost(load.HostConfig{Policy: "phased", Slots: 4, DO: 8, Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	var out strings.Builder
	err = run([]string{
		"-addr", host.GW.Addr(), "-sessions", "4", "-duration", "60ms",
	}, &out)
	if err != nil {
		t.Fatalf("attach run: %v\noutput:\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "gateway 127.0.0.1") {
		t.Error("attach mode should not self-host a gateway")
	}
}

// syncBuf is a strings.Builder safe for concurrent Write and String.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunAdminLiveScrape is the acceptance path for the observability
// layer: while a soak is in flight, /metrics already serves moving
// swarm and gateway counters and /events serves the renegotiation ring
// as JSONL.
func TestRunAdminLiveScrape(t *testing.T) {
	var out syncBuf
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-sessions", "4", "-duration", "2s", "-policy", "phased",
			"-admin", "127.0.0.1:0", "-trace", "2",
		}, &out)
	}()

	var adminAddr string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, rest, ok := strings.Cut(out.String(), "admin http://"); ok {
			adminAddr = strings.Fields(rest)[0]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if adminAddr == "" {
		t.Fatalf("admin address never printed:\n%s", out.String())
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + adminAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	// Wait for traffic to start moving, then take two scrapes and check
	// the live counters advanced between them.
	counter := func(body, name string) int64 {
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, name) {
				var v int64
				fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v)
				return v
			}
		}
		return -1
	}
	var first int64
	for time.Now().Before(deadline) {
		first = counter(get("/metrics"), "dynbw_load_bursts_total")
		if first > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if first <= 0 {
		t.Fatal("dynbw_load_bursts_total never moved during the soak")
	}
	time.Sleep(300 * time.Millisecond)
	metrics := get("/metrics")
	second := counter(metrics, "dynbw_load_bursts_total")
	if second <= first {
		t.Errorf("bursts counter did not advance mid-run: %d -> %d", first, second)
	}
	if counter(metrics, "dynbw_gateway_ticks_total") <= 0 {
		t.Error("gateway ticks not exported")
	}
	if !strings.Contains(metrics, `dynbw_gateway_allocation_changes_total{policy="phased"}`) {
		t.Error("allocation-changes counter missing policy label")
	}

	if events := get("/events"); !strings.Contains(events, `"type":"session_open"`) {
		t.Errorf("/events missing session_open JSONL:\n%.400s", events)
	}
	// Whatever the run's shape, the admin endpoint serves the instrumented
	// event ring and the span ring.
	if !strings.Contains(metrics, "dynbw_events_dropped_total") {
		t.Error("event ring not instrumented on /metrics")
	}
	if spans := get("/spans"); !strings.Contains(spans, `"client":true`) {
		t.Errorf("/spans has no client-traced span:\n%.400s", spans)
	}

	if err := <-done; err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
}

// TestSwarmHostObserver pins what swarm mode hands the hosted gateway as
// its event observer: a nil interface without -admin (not a typed-nil
// ring, which reads as "attached" and has gateway and policies build
// events for no reader), and with -admin -shards N a ring of N stripes.
func TestSwarmHostObserver(t *testing.T) {
	var got load.HostConfig
	startHost = func(cfg load.HostConfig) (*load.Host, error) {
		got = cfg
		return load.StartHost(cfg)
	}
	defer func() { startHost = load.StartHost }()
	swarm := []string{"-sessions", "8", "-shards", "4", "-duration", "30ms", "-tick", "2ms", "-rate", "8"}

	var out strings.Builder
	if err := run(swarm, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if got.Observer != nil {
		t.Errorf("without -admin the host got observer %T(%v), want a nil interface", got.Observer, got.Observer)
	}

	out.Reset()
	if err := run(append(swarm, "-admin", "127.0.0.1:0"), &out); err != nil {
		t.Fatalf("run -admin: %v\n%s", err, out.String())
	}
	ring, ok := got.Observer.(*obs.Ring)
	if !ok || ring == nil {
		t.Fatalf("with -admin the host got observer %T, want a *obs.Ring", got.Observer)
	}
	// A stripe holds DefaultRingSize/stripes events: one stripe's worth
	// more than that on stripe 0 overwrites on a 4-stripe ring only.
	before := ring.Dropped()
	for i := 0; i < obs.DefaultRingSize/2; i++ {
		ring.Stripe(0).Event(obs.Event{Type: obs.EventOverflow})
	}
	if d := ring.Dropped() - before; d < obs.DefaultRingSize/4 {
		t.Errorf("%d events on stripe 0 dropped %d: the -shards 4 host got a ring of fewer than 4 stripes", obs.DefaultRingSize/2, d)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := [][]string{
		{"-mode", "sideways"},
		{"-sessions", "100", "-perconn", "16", "-mode", "sideways", "-ramp", "10s", "-rate", "99999"},
		{"-sessions", "8", "-perconn", "0", "-duration", "20ms"},
		// The soak's own flags are gone, not aliased.
		{"-soak", "16"},
		{"-sessions", "8", "-hold", "1h"},
		{"-sessions", "8", "-batch", "8"},
		{"-policy", "tokenring", "-sessions", "2", "-duration", "20ms"},
		{"-addr", "127.0.0.1:1", "-policy", "a,b"},
		// A self-hosted gateway takes no zero for a default.
		{"-gwtick", "0", "-sessions", "2", "-duration", "20ms"},
		{"-do", "0", "-sessions", "2", "-duration", "20ms"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
