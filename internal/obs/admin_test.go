package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp, string(body)
}

func TestAdminMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dynbw_admin_total", "h", 1, L("policy", "phased")).Add(0, 7)
	srv := httptest.NewServer((&Admin{Registry: reg}).Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(body, `dynbw_admin_total{policy="phased"} 7`) {
		t.Errorf("metrics body:\n%s", body)
	}
}

func TestAdminHealthz(t *testing.T) {
	srv := httptest.NewServer((&Admin{}).Handler())
	defer srv.Close()
	if resp, body := get(t, srv, "/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
}

func TestAdminSessions(t *testing.T) {
	type row struct {
		Slot int   `json:"slot"`
		Rate int64 `json:"rate"`
	}
	a := &Admin{Sessions: func() any { return []row{{Slot: 0, Rate: 4}, {Slot: 3, Rate: 1}} }}
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/sessions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var rows []row
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("sessions not JSON: %v\n%s", err, body)
	}
	if len(rows) != 2 || rows[1].Slot != 3 {
		t.Errorf("rows = %+v", rows)
	}
}

func TestAdminSessionsNilSource(t *testing.T) {
	srv := httptest.NewServer((&Admin{}).Handler())
	defer srv.Close()
	if _, body := get(t, srv, "/sessions"); strings.TrimSpace(body) != "[]" {
		t.Errorf("nil sessions body = %q, want []", body)
	}
}

func TestAdminEvents(t *testing.T) {
	ring := NewRing(8)
	ring.Event(Event{Type: EventSessionOpen, Session: 1})
	ring.Event(Event{Type: EventRenegotiateUp, Session: 1, OldRate: 2, NewRate: 5, Rule: "phase-raise"})
	srv := httptest.NewServer((&Admin{Ring: ring}).Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3 (meta + 2 events):\n%s", len(lines), body)
	}
	if !strings.Contains(lines[0], `"ring_meta":true`) || !strings.Contains(lines[0], `"dropped":0`) {
		t.Errorf("meta line = %q", lines[0])
	}
	if !strings.Contains(lines[2], `"rule":"phase-raise"`) {
		t.Errorf("line 2 = %q", lines[2])
	}
	// An Admin with a nil ring still serves an empty, well-formed dump.
	empty := httptest.NewServer((&Admin{}).Handler())
	defer empty.Close()
	if resp, body := get(t, empty, "/events"); resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Errorf("nil-ring events = %d %q", resp.StatusCode, body)
	}
}

func TestAdminSpans(t *testing.T) {
	ring := NewSpanRing(8, []string{"read", "write"})
	ring.Push(Span{Trace: 42, Kind: "data", Stages: [MaxSpanStages]int64{5, 7}})
	srv := httptest.NewServer((&Admin{Spans: ring}).Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/spans")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want meta + 1 span:\n%s", len(lines), body)
	}
	if !strings.Contains(lines[0], `"span_meta":true`) {
		t.Errorf("meta line = %q", lines[0])
	}
	if !strings.Contains(lines[1], `"trace":42`) || !strings.Contains(lines[1], `"read":5`) {
		t.Errorf("span line = %q", lines[1])
	}
	// A nil span ring still serves an empty, well-formed response.
	empty := httptest.NewServer((&Admin{}).Handler())
	defer empty.Close()
	if resp, body := get(t, empty, "/spans"); resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Errorf("nil-ring spans = %d %q", resp.StatusCode, body)
	}
}

func TestAdminSnapshots(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dynbw_t_snap_total", "h", 1).Add(0, 3)
	rec := NewRecorder(RecorderConfig{Registry: reg})
	rec.Record()
	srv := httptest.NewServer((&Admin{Snapshots: rec}).Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/snapshots")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want meta + 1 snapshot:\n%s", len(lines), body)
	}
	if !strings.Contains(lines[0], `"recorder_meta":true`) {
		t.Errorf("meta line = %q", lines[0])
	}
	if !strings.Contains(lines[1], `"dynbw_t_snap_total":3`) {
		t.Errorf("snapshot line = %q", lines[1])
	}
	empty := httptest.NewServer((&Admin{}).Handler())
	defer empty.Close()
	if resp, body := get(t, empty, "/snapshots"); resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Errorf("nil-recorder snapshots = %d %q", resp.StatusCode, body)
	}
}

func TestAdminPprof(t *testing.T) {
	srv := httptest.NewServer((&Admin{}).Handler())
	defer srv.Close()
	if resp, body := get(t, srv, "/debug/pprof/"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index = %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv, "/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline = %d", resp.StatusCode)
	}
}

func TestStartAdminServes(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("dynbw_up", "h", 1).Set(0, 1)
	s, err := StartAdmin("127.0.0.1:0", &Admin{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "dynbw_up 1") {
		t.Errorf("StartAdmin metrics = %d %q", resp.StatusCode, body)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
