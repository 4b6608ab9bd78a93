package route

import "testing"

// TestPolicyResetEquivalence runs a full routing simulation twice on the
// same router instance with a Reset in between; blocked/placed/reroute
// counts and link totals must be identical — the router analogue of the
// sim.Runner reuse contract.
func TestPolicyResetEquivalence(t *testing.T) {
	caps := Uniform(3, 64)
	p := NewDAR(caps, 8, 21)
	cfg := testConfig(p)
	cfg.RebalanceEvery = 32
	cfg.RebalanceLimit = 2
	w := testWorkload("heavytail")

	first, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run consumed the router's state (sessions were placed and
	// released); Reset rewinds randomness too, so the rerun matches.
	p.Reset()
	second, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Placed != second.Placed || first.Blocked != second.Blocked ||
		first.Reroutes != second.Reroutes || first.Changes != second.Changes {
		t.Fatalf("reset rerun diverged:\n%+v\n%+v", first, second)
	}
	for i := range first.LinkBits {
		if first.LinkBits[i] != second.LinkBits[i] {
			t.Fatalf("link %d bits diverged: %d vs %d", i, first.LinkBits[i], second.LinkBits[i])
		}
	}
}
