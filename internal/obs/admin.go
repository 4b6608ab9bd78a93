package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Admin bundles the data sources behind the admin HTTP endpoints. Any
// field may be nil; the corresponding endpoint then serves an empty but
// well-formed response.
type Admin struct {
	// Registry backs /metrics (Prometheus text exposition format).
	Registry *Registry
	// Ring backs /events (JSONL dump: a ring_meta header with
	// total/retained/dropped counts, then the events in Seq order).
	Ring *Ring
	// Sessions backs /sessions: a JSON-marshalable snapshot (typically
	// []gateway.SessionInfo, kept as a closure so obs does not import
	// the packages it observes).
	Sessions func() any
	// Spans backs /spans (JSONL dump: a span_meta header, then the
	// retained wire-path spans oldest first).
	Spans *SpanRing
	// Snapshots backs /snapshots: the flight recorder's JSONL dump (a
	// recorder_meta header, the frozen anomaly window if any trigger
	// fired, then the live snapshot ring).
	Snapshots *Recorder
}

// Handler returns the admin mux: /metrics, /healthz, /sessions,
// /events, and the net/http/pprof suite under /debug/pprof/.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		a.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var snap any
		if a.Sessions != nil {
			snap = a.Sessions()
		}
		if snap == nil {
			snap = []any{}
		}
		json.NewEncoder(w).Encode(snap)
	})
	for path, dump := range map[string]func(io.Writer) error{
		"/events": a.Ring.WriteJSONL, "/spans": a.Spans.WriteJSONL, "/snapshots": a.Snapshots.WriteJSONL,
	} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			dump(w)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// AdminServer is a running admin HTTP server.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartAdmin listens on addr and serves a's endpoints in a background
// goroutine until Close.
func StartAdmin(addr string, a *Admin) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen: %w", err)
	}
	srv := &http.Server{Handler: a.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &AdminServer{ln: ln, srv: srv}, nil
}

// Addr returns the server's listen address.
func (s *AdminServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately.
func (s *AdminServer) Close() error { return s.srv.Close() }
