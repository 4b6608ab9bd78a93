package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dynbw/internal/load"
)

// syncBuf is a strings.Builder safe for concurrent Write and String —
// the signal test reads the output while run is still writing it.
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

// TestRunDemo runs each policy's demo. The summary's delay guarantee is
// the shard policy's own promise: combined adds its 2-tick reset handoff
// to 2·D_O.
func TestRunDemo(t *testing.T) {
	for policy, guarantee := range map[string]int{"phased": 16, "continuous": 16, "combined": 18} {
		t.Run(policy, func(t *testing.T) {
			var buf, errBuf strings.Builder
			args := []string{
				"-policy", policy, "-k", "2",
				"-tick", "500us", "-duration", "150ms",
			}
			if err := run(args, &buf, &errBuf); err != nil {
				t.Fatalf("run: %v", err)
			}
			out := buf.String()
			for _, want := range []string{"gateway", "bits served:", "session changes:", "events traced:",
				fmt.Sprintf("(%s guarantee: %d,", policy, guarantee)} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestRunBadPolicy(t *testing.T) {
	for _, args := range [][]string{{"-policy", "nope"}, {"-do", "0"}, {"-tick", "0"}} {
		var buf, errBuf strings.Builder
		if err := run(append(args, "-duration", "10ms"), &buf, &errBuf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunShortDeadline(t *testing.T) {
	var buf, errBuf strings.Builder
	start := time.Now()
	if err := run([]string{"-k", "1", "-tick", "1ms", "-duration", "30ms", "-grace", "100ms"}, &buf, &errBuf); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("demo ran far past its duration")
	}
}

// TestRunBatchedClients: the synthetic clients are an internal/load run,
// whose every tick is a BATCH frame, so there is no flag to ask for
// frames: the demo reports its deliveries, and -batch is gone.
func TestRunBatchedClients(t *testing.T) {
	var buf, errBuf strings.Builder
	if err := run([]string{"-k", "2", "-tick", "1ms", "-duration", "60ms", "-grace", "100ms"}, &buf, &errBuf); err != nil {
		t.Fatal(err)
	}
	var sent, delivered int
	_, line, _ := strings.Cut(buf.String(), "clients:")
	if _, err := fmt.Sscanf(strings.TrimSpace(line), "%d bursts sent, %d delivered", &sent, &delivered); err != nil || sent == 0 || delivered != sent {
		t.Errorf("demo clients sent %d bursts and saw %d delivered (%v):\n%s", sent, delivered, err, buf.String())
	}
	if err := run([]string{"-k", "2", "-duration", "10ms", "-batch", "4"}, &buf, &errBuf); err == nil {
		t.Error("-batch accepted")
	}
}

// TestRunAdminAndSignal exercises the serve-until-signal mode with the
// admin endpoint live: it scrapes /metrics and /healthz mid-run, sends
// SIGINT, and checks the run exits cleanly with the event ring flushed
// to the error writer as JSONL.
func TestRunAdminAndSignal(t *testing.T) {
	var buf, errBuf syncBuf
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-k", "2", "-tick", "500us", "-duration", "0",
			"-admin", "127.0.0.1:0", "-grace", "200ms",
		}, &buf, &errBuf)
	}()

	// The admin address is printed once the server is up; poll for it.
	var adminAddr string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, rest, ok := strings.Cut(buf.String(), "admin http://"); ok {
			adminAddr = strings.Fields(rest)[0]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if adminAddr == "" {
		t.Fatalf("admin address never printed:\n%s", buf.String())
	}

	for _, path := range []string{"/healthz", "/metrics", "/sessions", "/events"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", adminAddr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, body %q", path, resp.StatusCode, body)
		}
		if path == "/metrics" && !strings.Contains(string(body), "dynbw_gateway_allocation_changes_total") {
			t.Errorf("/metrics missing allocation-changes counter:\n%s", body)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("self-signal: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGINT")
	}
	if !strings.Contains(buf.String(), "serving until SIGINT/SIGTERM") {
		t.Errorf("missing serve-mode banner:\n%s", buf.String())
	}
	// The ring flush is JSONL on the error writer; with no clients it
	// may be empty, but any line present must be valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(errBuf.String()), "\n") {
		if line == "" || !strings.HasPrefix(line, "{") {
			continue // slog diagnostics share the writer
		}
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Errorf("event ring line not JSON: %q: %v", line, err)
		}
	}
}

// TestRunMultiLinkDemo: -route places each OPEN on one of the -shards.
func TestRunMultiLinkDemo(t *testing.T) {
	for _, policy := range []string{"greedy", "dar", "p2c"} {
		t.Run(policy, func(t *testing.T) {
			var buf, errBuf strings.Builder
			args := []string{
				"-k", "4", "-shards", "2", "-route", policy,
				"-tick", "500us", "-duration", "150ms",
			}
			if err := run(args, &buf, &errBuf); err != nil {
				t.Fatalf("run: %v", err)
			}
			out := buf.String()
			for _, want := range []string{"over 2 shards", "route " + policy, "bits served:"} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestRunRoutedShards: a p2c router over eight shards serves the demo's
// clients, every burst delivered.
func TestRunRoutedShards(t *testing.T) {
	var buf, errBuf strings.Builder
	if err := run([]string{"-k", "16", "-shards", "8", "-route", "p2c", "-duration", "1s"}, &buf, &errBuf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "16 slots over 8 shards (route p2c)") {
		t.Errorf("banner missing the routed layout:\n%s", out)
	}
	var sent, delivered int
	_, line, _ := strings.Cut(out, "clients:")
	if _, err := fmt.Sscanf(strings.TrimSpace(line), "%d bursts sent, %d delivered", &sent, &delivered); err != nil || sent == 0 || delivered != sent {
		t.Errorf("clients sent %d bursts and saw %d delivered (%v):\n%s", sent, delivered, err, out)
	}
}

func TestRunMultiLinkValidation(t *testing.T) {
	var buf, errBuf strings.Builder
	if err := run([]string{"-k", "5", "-shards", "2", "-route", "p2c", "-duration", "10ms"}, &buf, &errBuf); err == nil {
		t.Fatal("indivisible -k/-shards accepted")
	}
	if err := run([]string{"-k", "4", "-shards", "2", "-route", "nope", "-duration", "10ms"}, &buf, &errBuf); err == nil {
		t.Fatal("bad route policy accepted")
	}
	for _, flag := range []string{"-links", "-rebalance"} {
		if err := run([]string{"-k", "4", flag, "2", "-duration", "10ms"}, &buf, &errBuf); err == nil {
			t.Errorf("%s accepted", flag)
		}
	}
}

// TestRunMultiLinkMetrics checks that a routed gateway exports the
// routing counters on /metrics from startup.
func TestRunMultiLinkMetrics(t *testing.T) {
	var buf, errBuf syncBuf
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-k", "4", "-shards", "2", "-route", "p2c",
			"-tick", "500us", "-duration", "0",
			"-admin", "127.0.0.1:0", "-grace", "200ms",
		}, &buf, &errBuf)
	}()

	var adminAddr string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, rest, ok := strings.Cut(buf.String(), "admin http://"); ok {
			adminAddr = strings.Fields(rest)[0]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if adminAddr == "" {
		t.Fatalf("admin address never printed:\n%s", buf.String())
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", adminAddr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`dynbw_route_placements_total{policy="p2c"}`,
		`dynbw_route_link_load{link="0"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("self-signal: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGINT")
	}
}

// TestRunHostConfig: the gateway is a load.StartHost host, and the
// flags reach it. The wrapped startHost starts the real host, reads the
// address it bound, and fails the run, so no signal is needed.
func TestRunHostConfig(t *testing.T) {
	var (
		got   load.HostConfig
		bound string
	)
	stop := errors.New("stop after hosting")
	startHost = func(cfg load.HostConfig) (*load.Host, error) {
		got = cfg
		h, err := load.StartHost(cfg)
		if err != nil {
			return nil, err
		}
		bound = h.GW.Addr()
		h.Close()
		return nil, stop
	}
	defer func() { startHost = load.StartHost }()
	var buf, errBuf strings.Builder
	err := run([]string{"-duration", "0", "-k", "8", "-shards", "4", "-route", "p2c", "-addr", "127.0.0.1:0"}, &buf, &errBuf)
	if !errors.Is(err, stop) {
		t.Fatalf("run: %v, want the wrapped startHost's error", err)
	}
	if got.Addr != "127.0.0.1:0" || got.Shards != 4 || got.Slots != 8 {
		t.Errorf("host config Addr %q, Shards %d, Slots %d; want 127.0.0.1:0, 4, 8", got.Addr, got.Shards, got.Slots)
	}
	if got.Router == nil || got.Router.Name() != "p2c" || got.Router.K() != 4 {
		t.Errorf("host config Router = %v, want p2c over 4 shards", got.Router)
	}
	if !strings.HasPrefix(bound, "127.0.0.1:") {
		t.Errorf("host bound %q, want an address on 127.0.0.1", bound)
	}
}
