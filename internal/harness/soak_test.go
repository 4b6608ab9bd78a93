package harness

import (
	"strings"
	"testing"
	"time"
)

// TestSoakSmall runs E21 at reduced scale: every policy must boot a real
// gateway, drain a small swarm, and produce a well-formed table row.
func TestSoakSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("live gateway soak")
	}
	tb, err := soak(soakConfig{Sessions: 8, Duration: 120 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("E21 produced %d rows, want 3 (one per policy)", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[5] != "true" {
			t.Errorf("policy %s did not drain: %v", row[0], row)
		}
	}
	md := tb.Markdown()
	for _, want := range []string{"E21", "phased", "continuous", "combined", "p99_ms"} {
		if !strings.Contains(md, want) {
			t.Errorf("E21 markdown missing %q", want)
		}
	}
}

// TestLiveRegistry pins the live registry's shape and keeps its IDs
// disjoint from the deterministic set.
func TestLiveRegistry(t *testing.T) {
	live := Live()
	if len(live) != 1 || live[0].ID != "E21" {
		t.Fatalf("Live() = %+v, want exactly E21", live)
	}
	deterministic := make(map[string]bool)
	for _, e := range All() {
		deterministic[e.ID] = true
	}
	for _, e := range live {
		if deterministic[e.ID] {
			t.Errorf("live experiment %s shadows a deterministic ID", e.ID)
		}
		if e.Run == nil {
			t.Errorf("live experiment %s has no Run", e.ID)
		}
	}
}
