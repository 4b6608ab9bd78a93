package route

import (
	"slices"
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
	p.Release(Session{ID: 4, Rate: 5}, 1)
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

func TestPlacePanicsOnNegativeRate(t *testing.T) {
	p := NewGreedy(Uniform(2, 10))
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

// TestReleaseUnplacedPanics: the router keeps no session IDs, so a
// release it cannot cover — from a link with no session, or of more rate
// than the link holds — is the caller's bookkeeping gone wrong, and it
// panics rather than drive a load negative. The loads are left as they
// were.
func TestReleaseUnplacedPanics(t *testing.T) {
	p := NewGreedy(Uniform(2, 10))
	mustPanic(t, "release from an empty link", func() { p.Release(Session{ID: 42, Rate: 1}, 0) })
	l := p.Place(Session{ID: 0, Rate: 3})
	mustPanic(t, "release of more than the link holds", func() { p.Release(Session{ID: 0, Rate: 4}, l) })
	if p.LoadOf(l) != 3 || p.SessionsOf(l) != 1 || p.LoadOf(1-l) != 0 {
		t.Fatalf("loads after refused releases: %d on %d, %d on %d; want 3 with 1 session, and 0",
			p.LoadOf(l), l, p.LoadOf(1-l), 1-l)
	}
}

// placeAll places the sessions in order and returns them with their
// links, the books a caller keeps for Release and Rebalance.
func placeAll(t *testing.T, p *Policy, ss ...Session) []Placed {
	t.Helper()
	var live []Placed
	for _, s := range ss {
		l := p.Place(s)
		if l == Blocked {
			t.Fatalf("session %d blocked", s.ID)
		}
		live = append(live, Placed{s, l})
	}
	return live
}

// checkMoves fails unless each move is reflected in live, and the
// sessions live puts on each link add up to the router's loads.
func checkMoves(t *testing.T, p *Policy, live []Placed, moves []Move) {
	t.Helper()
	for _, mv := range moves {
		if mv.From == mv.To {
			t.Fatalf("self-move: %+v", mv)
		}
		i := slices.IndexFunc(live, func(pl Placed) bool { return pl.ID == mv.Session })
		if i < 0 || live[i].Link != mv.To || live[i].Rate != mv.Rate {
			t.Fatalf("move %+v not reflected in live %v", mv, live)
		}
	}
	for l := range LinkID(p.K()) {
		var load bw.Rate
		n := 0
		for _, pl := range live {
			if pl.Link == l {
				load += pl.Rate
				n++
			}
		}
		if p.LoadOf(l) != load || p.SessionsOf(l) != n {
			t.Fatalf("link %d: router holds %d sessions at load %d, live %d at %d",
				l, p.SessionsOf(l), p.LoadOf(l), n, load)
		}
	}
}

func TestRebalanceEvensLoad(t *testing.T) {
	p := NewGreedy(Uniform(2, 100))
	// One big session on link 0 (ties go low), then four small ones that
	// greedy puts on link 1, the less loaded.
	live := placeAll(t, p, Session{ID: 100, Rate: 90},
		Session{ID: 0, Rate: 10}, Session{ID: 1, Rate: 10}, Session{ID: 2, Rate: 10}, Session{ID: 3, Rate: 10})
	// Free the big one: link 1 holds all 40, and two moves even it out.
	p.Release(live[0].Session, live[0].Link)
	live = live[1:]
	moves := p.Rebalance(10, live)
	if len(moves) != 2 || p.LoadOf(0) != 20 || p.LoadOf(1) != 20 {
		t.Fatalf("rebalance made %d moves to loads %d/%d; want 2 to 20/20", len(moves), p.LoadOf(0), p.LoadOf(1))
	}
	// The smallest rate, then the lowest ID, moves first.
	if moves[0].Session != 0 || moves[1].Session != 1 {
		t.Fatalf("moves %v: want sessions 0 then 1", moves)
	}
	checkMoves(t, p, live, moves)
	// From the evened state a second pass moves nothing.
	if extra := p.Rebalance(10, live); len(extra) != 0 {
		t.Fatalf("rebalance of balanced state moved %d sessions", len(extra))
	}
}

func TestRebalanceRespectsLimit(t *testing.T) {
	p := NewGreedy([]bw.Rate{100, 100})
	// Fill link 0 first, so every small session lands on link 1.
	live := placeAll(t, p, Session{ID: 99, Rate: 100})
	for i := 0; i < 8; i++ {
		live = append(live, placeAll(t, p, Session{ID: i, Rate: 10})...)
	}
	p.Release(live[0].Session, live[0].Link) // link 0 empty, link 1 holds 80
	live = live[1:]
	moves := p.Rebalance(2, live)
	if len(moves) != 2 {
		t.Fatalf("limit 2 produced %d moves", len(moves))
	}
	checkMoves(t, p, live, moves)
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
	p.Release(Session{ID: 0, Rate: 10}, 0)
	p.Place(Session{ID: 3, Rate: 2}) // link 0
	// Moving session 1 would not lower the pair maximum: no reroute.
	p.Rebalance(1, []Placed{{Session{ID: 1, Rate: 10}, 1}, {Session{ID: 3, Rate: 2}, 0}})

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
	live := placeAll(t, p, Session{ID: 9, Rate: 100}) // fill link 0
	for i := 0; i < 6; i++ {
		live = append(live, placeAll(t, p, Session{ID: i, Rate: 10})...) // link 1
	}
	p.Release(live[0].Session, live[0].Link)
	if moves := p.Rebalance(3, live[1:]); len(moves) == 0 {
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
