package route

import (
	"strings"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
)

func TestGreedyBalancesAndBlocks(t *testing.T) {
	p := NewGreedy(Uniform(3, 10))
	// Greedy spreads equal-rate sessions round over the links.
	for i := 0; i < 6; i++ {
		l := p.Place(Session{ID: i, Rate: 5})
		if want := LinkID(i % 3); l != want {
			t.Fatalf("session %d: placed on %d, want %d", i, l, want)
		}
	}
	// All links full: next placement blocks.
	if l := p.Place(Session{ID: 6, Rate: 5}); l != Blocked {
		t.Fatalf("placement on full links: got %d, want Blocked", l)
	}
	// Freeing one reservation re-admits exactly there.
	p.Release(4)
	if l := p.Place(Session{ID: 7, Rate: 5}); l != LinkID(1) {
		t.Fatalf("after release: placed on %d, want 1", l)
	}
}

func TestGreedyPrefersLeastLoadedFraction(t *testing.T) {
	p := NewGreedy([]bw.Rate{10, 100})
	if l := p.Place(Session{ID: 0, Rate: 8}); l != 0 {
		t.Fatalf("first: got %d, want 0 (equal fractions, lowest index)", l)
	}
	// Link 0 is now 80% full, link 1 empty: the big link wins.
	if l := p.Place(Session{ID: 1, Rate: 8}); l != 1 {
		t.Fatalf("second: got %d, want 1", l)
	}
}

func TestDARHomeThenAlternative(t *testing.T) {
	p := NewDAR(Uniform(2, 10), 2, 1)
	// ID 0's home is link 0.
	if l := p.Place(Session{ID: 0, Rate: 9}); l != 0 {
		t.Fatalf("home placement: got %d, want 0", l)
	}
	// Home full; the only alternative is link 1, which has 10 free —
	// admitting rate 5 leaves 5 >= reserve 2, so it overflows there.
	if l := p.Place(Session{ID: 2, Rate: 5}); l != 1 {
		t.Fatalf("overflow placement: got %d, want 1", l)
	}
	// Now the alternative has 5 free; rate 4 would leave 1 < reserve 2,
	// so trunk reservation rejects it even though it physically fits.
	if l := p.Place(Session{ID: 4, Rate: 4}); l != Blocked {
		t.Fatalf("trunk reservation: got %d, want Blocked", l)
	}
	// Direct traffic for link 1 still gets the reserved headroom.
	if l := p.Place(Session{ID: 1, Rate: 4}); l != 1 {
		t.Fatalf("direct traffic: got %d, want 1", l)
	}
}

func TestDARZeroReserveAdmitsToTheBrim(t *testing.T) {
	p := NewDAR(Uniform(2, 10), 0, 1)
	if l := p.Place(Session{ID: 0, Rate: 10}); l != 0 {
		t.Fatalf("home fill: got %d, want 0", l)
	}
	if l := p.Place(Session{ID: 2, Rate: 10}); l != 1 {
		t.Fatalf("overflow fill: got %d, want 1", l)
	}
}

func TestP2CDeterministicAndBounded(t *testing.T) {
	a := NewP2C(Uniform(4, 100), 7)
	b := NewP2C(Uniform(4, 100), 7)
	for i := 0; i < 200; i++ {
		la := a.Place(Session{ID: i, Rate: 1})
		lb := b.Place(Session{ID: i, Rate: 1})
		if la != lb {
			t.Fatalf("session %d: same seed diverged (%d vs %d)", i, la, lb)
		}
		if la == Blocked {
			t.Fatalf("session %d: blocked with ample capacity", i)
		}
	}
	// Two choices keep the load spread tight: no link should hold more
	// than twice the perfect share of 50 after 200 unit placements.
	for l := LinkID(0); l < 4; l++ {
		if n := a.SessionsOf(l); n > 100 {
			t.Fatalf("link %d: %d sessions, spread too loose", l, n)
		}
	}
}

func TestPlacePanicsOnDuplicateAndNegative(t *testing.T) {
	p := NewGreedy(Uniform(2, 10))
	p.Place(Session{ID: 1, Rate: 1})
	mustPanic(t, "duplicate id", func() { p.Place(Session{ID: 1, Rate: 1}) })
	mustPanic(t, "negative rate", func() { p.Place(Session{ID: 2, Rate: -1}) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	f()
}

func TestReleaseUnknownIsNoop(t *testing.T) {
	p := NewGreedy(Uniform(2, 10))
	p.Release(42) // must not panic or disturb state
	if got := p.LoadOf(0) + p.LoadOf(1); got != 0 {
		t.Fatalf("load after bogus release: %d, want 0", got)
	}
}

// TestRekey: a reservation placed under a provisional key is filed under
// the session's lasting ID without moving load, the provisional key is
// forgotten, an unknown key is a no-op, and rekeying onto a live session
// panics.
func TestRekey(t *testing.T) {
	p := NewGreedy(Uniform(2, 10))
	p.Place(Session{ID: 0, Rate: 3})
	l := p.Place(Session{ID: -5, Rate: 4})
	p.Rekey(-5, 7)
	if p.Where(7) != l || p.Where(-5) != Blocked || p.LoadOf(l) != 4 || p.SessionsOf(l) != 1 {
		t.Fatalf("after rekey: session 7 on %d, -5 on %d, link %d load %d with %d sessions; want %d, Blocked, 4, 1",
			p.Where(7), p.Where(-5), l, p.LoadOf(l), p.SessionsOf(l), l)
	}
	p.Rekey(-6, 8) // never placed
	if p.Where(8) != Blocked {
		t.Fatal("rekeying an unknown key placed a session")
	}
	p.Release(7)
	if p.LoadOf(l) != 0 {
		t.Fatalf("release under the new key left load %d", p.LoadOf(l))
	}
	p.Place(Session{ID: -1, Rate: 1})
	defer func() {
		if recover() == nil {
			t.Error("rekeying onto a live session did not panic")
		}
	}()
	p.Rekey(-1, 0)
}

func TestRebalanceEvensLoad(t *testing.T) {
	p := NewGreedy(Uniform(2, 100))
	// Pile sessions onto link 0 by hand: place while link 1 is
	// artificially busy, then free it.
	p.Place(Session{ID: 100, Rate: 90}) // link 0 (ties go low)
	for i := 0; i < 4; i++ {
		p.Place(Session{ID: i, Rate: 10}) // link 1 now less loaded... verify below
	}
	// Whatever the exact split, rebalance must strictly shrink the
	// spread and report each move coherently.
	before := p.Loads()
	moves := p.Rebalance(10)
	after := p.Loads()
	if spread(after) > spread(before) {
		t.Fatalf("rebalance widened spread: %v -> %v", before, after)
	}
	for _, mv := range moves {
		if mv.From == mv.To {
			t.Fatalf("self-move: %+v", mv)
		}
		if p.Where(mv.Session) != mv.To {
			t.Fatalf("move %+v not reflected in Where", mv)
		}
	}
	// A second pass from the evened state must be idempotent-ish: it can
	// only return moves that keep shrinking the spread, and with equal
	// loads it returns none.
	if spread(after) == 0 {
		if extra := p.Rebalance(10); len(extra) != 0 {
			t.Fatalf("rebalance of balanced state moved %d sessions", len(extra))
		}
	}
}

func TestRebalanceRespectsLimit(t *testing.T) {
	p := NewGreedy([]bw.Rate{100, 100})
	// Force all sessions to link 0 by filling link 1 first.
	p.Place(Session{ID: 99, Rate: 100}) // link 0
	for i := 0; i < 8; i++ {
		p.Place(Session{ID: i, Rate: 10}) // link 1
	}
	p.Release(99) // link 0 empty, link 1 holds 80
	if moves := p.Rebalance(2); len(moves) > 2 {
		t.Fatalf("limit 2 produced %d moves", len(moves))
	}
}

func spread(loads []bw.Rate) bw.Rate {
	lo, hi := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	return hi - lo
}

func TestResetRestoresConstructionState(t *testing.T) {
	p := NewP2C(Uniform(3, 50), 11)
	first := make([]LinkID, 30)
	for i := range first {
		first[i] = p.Place(Session{ID: i, Rate: 3})
	}
	p.Reset()
	for l := LinkID(0); l < 3; l++ {
		if p.LoadOf(l) != 0 || p.SessionsOf(l) != 0 {
			t.Fatalf("link %d not empty after Reset", l)
		}
	}
	// Same seed, same decisions — the reuse contract.
	for i := range first {
		if got := p.Place(Session{ID: i, Rate: 3}); got != first[i] {
			t.Fatalf("session %d after Reset: %d, want %d", i, got, first[i])
		}
	}
}

func TestEventsAndMetrics(t *testing.T) {
	p := NewGreedy(Uniform(2, 10))
	ring := obs.NewRing(64)
	p.SetObserver(ring)
	reg := obs.NewRegistry()
	p.Instrument(reg)

	p.Place(Session{ID: 0, Rate: 10}) // link 0
	p.Place(Session{ID: 1, Rate: 10}) // link 1
	p.Place(Session{ID: 2, Rate: 1})  // blocked
	p.Release(0)
	p.Place(Session{ID: 3, Rate: 2}) // link 0
	p.Rebalance(1)                   // moves 3? only if it shrinks spread

	var types []string
	for _, e := range ring.Snapshot() {
		types = append(types, e.Type.String())
		if e.Rule != "greedy" {
			t.Fatalf("event %v has rule %q, want greedy", e.Type, e.Rule)
		}
	}
	joined := strings.Join(types, ",")
	for _, want := range []string{"route_place", "route_block", "route_release"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("event stream %q missing %q", joined, want)
		}
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`dynbw_route_placements_total{policy="greedy"} 3`,
		`dynbw_route_blocked_total{policy="greedy"} 1`,
		`dynbw_route_link_load{link="0"}`,
		`dynbw_route_link_sessions{link="1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestRerouteEventCarriesBothLinks(t *testing.T) {
	p := NewGreedy([]bw.Rate{100, 100})
	ring := obs.NewRing(64)
	p.SetObserver(ring)
	p.Place(Session{ID: 9, Rate: 100}) // fill link 0
	for i := 0; i < 6; i++ {
		p.Place(Session{ID: i, Rate: 10}) // link 1
	}
	p.Release(9)
	if moves := p.Rebalance(3); len(moves) == 0 {
		t.Fatal("expected at least one move")
	}
	found := false
	for _, e := range ring.Snapshot() {
		if e.Type != obs.EventRouteReroute {
			continue
		}
		found = true
		if e.FromLink != 1 || e.Link != 0 {
			t.Fatalf("reroute links: from %d to %d, want 1 to 0", e.FromLink, e.Link)
		}
	}
	if !found {
		t.Fatal("no route_reroute event emitted")
	}
}

func TestUniform(t *testing.T) {
	caps := Uniform(3, 7)
	if len(caps) != 3 || caps[0] != 7 || caps[2] != 7 {
		t.Fatalf("Uniform(3,7) = %v", caps)
	}
}
