package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynbw/internal/trace"
)

func TestGenerateToWriter(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-workload", "cbr", "-ticks", "10", "-peak", "5"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	tr, err := trace.ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("output is not parseable: %v", err)
	}
	if tr.Len() != 10 || tr.Total() != 50 {
		t.Errorf("trace len=%d total=%d", tr.Len(), tr.Total())
	}
}

func TestGenerateAllWorkloads(t *testing.T) {
	for _, w := range []string{"cbr", "onoff", "pareto", "video", "spike", "square", "doubling", "composite"} {
		t.Run(w, func(t *testing.T) {
			var buf strings.Builder
			if err := run([]string{"-workload", w, "-ticks", "100"}, &buf); err != nil {
				t.Fatalf("run %s: %v", w, err)
			}
			if _, err := trace.ReadCSV(strings.NewReader(buf.String())); err != nil {
				t.Fatalf("unparseable output for %s: %v", w, err)
			}
		})
	}
}

func TestGenerateToFileWithClamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	args := []string{"-workload", "pareto", "-ticks", "200", "-clamp-b", "64", "-clamp-d", "4", "-o", path}
	var buf strings.Builder
	if err := run(args, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatalf("parse written file: %v", err)
	}
	if !tr.ServeableWith(64, 4) {
		t.Error("clamped trace not serveable within the clamp envelope")
	}
}

func TestUnknownWorkload(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-workload", "nope"}, &buf); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRoundTripThroughBwsimFormat(t *testing.T) {
	// bwtrace output must be exactly what trace.ReadCSV (used by bwmulti
	// -trace for one session) parses, including the header.
	var buf strings.Builder
	if err := run([]string{"-workload", "square", "-ticks", "32"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "tick,bits\n") {
		t.Errorf("missing header: %q", buf.String()[:20])
	}
}

func TestMultiSessionMode(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-sessions", "3", "-ticks", "128", "-peak", "48"}, &buf); err != nil {
		t.Fatalf("run -sessions: %v", err)
	}
	m, err := trace.ReadMultiCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("multi output unparseable: %v", err)
	}
	if m.K() != 3 {
		t.Errorf("K = %d, want 3", m.K())
	}
	if m.Aggregate().Total() == 0 {
		t.Error("no traffic in planted multi workload")
	}
}
