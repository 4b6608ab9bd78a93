package load

import (
	"strings"
	"testing"
	"time"

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
		{"bogus", 0, false},
	} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if OpenLoop.String() != "open" || ClosedLoop.String() != "closed" {
		t.Errorf("Mode.String: %q, %q", OpenLoop, ClosedLoop)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Addr: "127.0.0.1:1", Sessions: 0}); err == nil {
		t.Error("sessions=0 accepted")
	}
	if _, err := Run(Config{Sessions: 1}); err == nil {
		t.Error("empty addr accepted")
	}
}

// startHost self-hosts a gateway for tests and returns its teardown.
func startHost(t *testing.T, policy string, slots int, tick time.Duration) *Host {
	t.Helper()
	h, err := StartHost(HostConfig{Policy: policy, Slots: slots, Tick: tick})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSwarmOpenLoop256 is the acceptance soak: 256 concurrent sessions
// against a self-hosted gateway over the real wire protocol, all opened,
// drained, and released. It runs with the race detector in CI.
func TestSwarmOpenLoop256(t *testing.T) {
	sessions := 256
	duration := 400 * time.Millisecond
	if testing.Short() {
		sessions = 32
		duration = 150 * time.Millisecond
	}
	h := startHost(t, "phased", sessions, 500*time.Microsecond)
	defer h.Close()

	res, err := Run(Config{
		Addr:     h.Addr(),
		Sessions: sessions,
		Mode:     OpenLoop,
		Tick:     2 * time.Millisecond,
		Duration: duration,
		Ramp:     50 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Errs() {
		t.Error(e)
	}
	if res.Opened != sessions {
		t.Fatalf("opened %d of %d sessions", res.Opened, sessions)
	}
	if res.Released != sessions {
		t.Errorf("released %d of %d sessions", res.Released, sessions)
	}
	if !res.Drained() {
		t.Errorf("swarm did not drain: served %d of %d bits", res.BitsServed, res.BitsSent)
	}
	if res.Bursts == 0 || res.Delivered != res.Bursts {
		t.Errorf("bursts %d, delivered %d", res.Bursts, res.Delivered)
	}
	if res.Delivery.Count() == 0 || res.RTT.Count() == 0 {
		t.Error("no latency samples recorded")
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput %v", res.Throughput)
	}
	st := h.Close()
	if st.Served != res.BitsServed {
		t.Errorf("gateway served %d, swarm observed %d", st.Served, res.BitsServed)
	}
}

func TestSwarmClosedLoop(t *testing.T) {
	h := startHost(t, "continuous", 8, 500*time.Microsecond)
	defer h.Close()
	res, err := Run(Config{
		Addr:     h.Addr(),
		Sessions: 8,
		Mode:     ClosedLoop,
		Tick:     time.Millisecond,
		Duration: 120 * time.Millisecond,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Errs() {
		t.Error(e)
	}
	if res.Bursts == 0 {
		t.Fatal("closed loop sent nothing")
	}
	// Closed loop never has more than one burst outstanding, so every
	// sent burst is also delivered.
	if res.Delivered != res.Bursts {
		t.Errorf("delivered %d of %d bursts", res.Delivered, res.Bursts)
	}
	if !res.Drained() {
		t.Error("closed-loop run left bits queued")
	}
}

// TestSlotRecycling runs two consecutive swarms of the full slot count:
// the second can only open if the first's explicit releases freed every
// slot.
func TestSlotRecycling(t *testing.T) {
	const slots = 16
	h := startHost(t, "phased", slots, 500*time.Microsecond)
	defer h.Close()
	var charged int64
	for round := 0; round < 2; round++ {
		res, err := Run(Config{
			Addr:     h.Addr(),
			Sessions: slots,
			Mode:     OpenLoop,
			Tick:     time.Millisecond,
			Duration: 60 * time.Millisecond,
			Seed:     uint64(round),
			// No retries: round 2 must find the slots already free.
			DialRetries: 1,
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
		for _, s := range res.PerSession {
			if s.FinalQueued == 0 && s.BitsServed != s.BitsSent {
				t.Errorf("round %d session %d (ID %#x): sent %d, gateway reports %d served",
					round, s.ID, s.Slot, s.BitsSent, s.BitsServed)
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

// TestSwarmCustomGenerator exercises the Gen hook with a rate-scaled
// CBR stream: deterministic volume in, identical volume served.
func TestSwarmCustomGenerator(t *testing.T) {
	h := startHost(t, "phased", 4, 500*time.Microsecond)
	defer h.Close()
	res, err := Run(Config{
		Addr:     h.Addr(),
		Sessions: 4,
		Mode:     OpenLoop,
		Tick:     2 * time.Millisecond,
		Duration: 100 * time.Millisecond,
		Gen: func(id int) traffic.Generator {
			// A simulation-scale 320 bits/tick stream replayed at a tenth
			// of its authored rate.
			return traffic.Scaled{Source: traffic.CBR{Rate: 320}, Factor: 0.1}
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

func TestReportRendering(t *testing.T) {
	h := startHost(t, "combined", 4, 500*time.Microsecond)
	defer h.Close()
	res, err := Run(Config{
		Addr:     h.Addr(),
		Sessions: 4,
		Duration: 60 * time.Millisecond,
		Tick:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	md := res.Markdown("combined")
	for _, want := range []string{
		"## bwload: combined", "throughput (bits/s)", "session changes",
		"burst delivery", "p50", "p99", "drained",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	csv := res.CSV("combined", true)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	// Header + one row per session + aggregate.
	if len(lines) != 1+4+1 {
		t.Errorf("CSV has %d lines, want 6:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "label,session,slot,ok") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[len(lines)-1], "combined,all,") {
		t.Errorf("CSV aggregate row = %q", lines[len(lines)-1])
	}
}

func TestNewPolicyUnknown(t *testing.T) {
	if _, err := NewPolicy("nope", 4, 64, 8); err == nil {
		t.Error("unknown policy accepted")
	}
}
