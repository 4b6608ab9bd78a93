// Package route is the multi-link routing tier: it places sessions onto
// one of k backend links. In the live gateway a link is a shard; in the
// routing simulation (Run) each link is run as a shard is, a slot table
// under one of the paper's k-session policies, so the tier turns the
// paper's one-link theorems into route-then-allocate.
//
// Three placement policies are provided, following the balanced-
// allocation literature retrieved in PAPERS.md:
//
//   - greedy least-loaded placement (the d=k extreme of balanced
//     allocation: inspect every link, pick the emptiest);
//   - Dynamic Alternative Routing with trunk reservation, the telephone-
//     network policy whose steady state Anagnostopoulos, Kontoyiannis
//     and Upfal analyze: a session first tries its home link, then a
//     sticky randomly-chosen alternative that admits it only if enough
//     headroom (the trunk reservation) remains, re-randomizing the
//     alternative on failure;
//   - power-of-two-choices: sample two links uniformly, place on the
//     less loaded — the d=2 point whose exponential improvement over
//     d=1 the same paper transfers to routing.
//
// Alongside the paper's renegotiation count, the tier counts *reroutes*
// — migrations of a live session between links, in the style of online
// dynamic b-matching (Bienkowski et al.), where each reconfiguration of
// the matching costs one. Rebalance passes trade reroutes for balance;
// experiments E23–E25 race the policies on blocking, balance, and the
// combined change+reroute cost.
package route

import (
	"fmt"
	"strconv"
	"sync"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/rng"
)

// LinkID identifies one backend link (0-based).
type LinkID int

// Blocked is returned by Place when no link can admit the session.
const Blocked LinkID = -1

// Session is a placement request: a session identifier (the key DAR
// takes a home link from, and the name events report) and the nominal
// rate the admission rule reserves on the chosen link. The live gateway
// places slots with Rate 1 on its shards, against slot-count capacities;
// the routing simulation places declared bandwidths against link
// capacities.
type Session struct {
	ID   int
	Rate bw.Rate
}

// Placed is a live session and the link that holds it, as the caller
// keeps them: the router keeps only per-link loads.
type Placed struct {
	Session
	Link LinkID
}

// Move records one session migration.
type Move struct {
	Session  int
	Rate     bw.Rate
	From, To LinkID
}

// chooseFunc is a placement strategy. It is called with p.mu held and
// must only read the policy state; the caller applies the reservation.
type chooseFunc func(p *Policy, s Session) LinkID

// Policy is a router: per-link capacity and load bookkeeping, placement
// via a strategy function, release, and load-evening rebalance. It keeps
// nothing per session: the caller knows which link holds each one.
// Construct one with New, NewGreedy, NewDAR or NewP2C. A Policy is safe
// for concurrent use.
type Policy struct {
	name   string
	choose chooseFunc

	mu   sync.Mutex
	caps []bw.Rate   // immutable after construction
	load []bw.Rate   // guarded by mu; reserved nominal rate per link
	num  []int       // guarded by mu; sessions per link
	alt  []LinkID    // guarded by mu; DAR's sticky alternative per home link
	src  *rng.Source // guarded by mu; randomness for p2c sampling / DAR re-pick

	reserve bw.Rate // DAR trunk reservation headroom, 0 otherwise

	o               obs.Observer
	placed, blocked *obs.Counter // Instrument's; nil counts nothing
}

// newPolicy builds the shared state for k links with the given
// capacities.
func newPolicy(name string, caps []bw.Rate, seed uint64, choose chooseFunc) *Policy {
	p := &Policy{
		name:   name,
		choose: choose,
		caps:   append([]bw.Rate(nil), caps...),
		load:   make([]bw.Rate, len(caps)),
		num:    make([]int, len(caps)),
		alt:    make([]LinkID, len(caps)),
		src:    rng.New(seed),
	}
	for i := range p.alt {
		p.alt[i] = Blocked
	}
	return p
}

// New returns the named router — greedy, dar or p2c — over links of the
// given capacities. reserve is DAR's trunk reservation and seed the
// randomness of dar and p2c; the others ignore them.
func New(name string, caps []bw.Rate, reserve bw.Rate, seed uint64) (*Policy, error) {
	switch name {
	case "greedy":
		return NewGreedy(caps), nil
	case "dar":
		return NewDAR(caps, reserve, seed), nil
	case "p2c":
		return NewP2C(caps, seed), nil
	}
	return nil, fmt.Errorf("route: unknown policy %q", name)
}

// Uniform returns k equal link capacities, the common experiment setup.
func Uniform(k int, cap bw.Rate) []bw.Rate {
	caps := make([]bw.Rate, k)
	for i := range caps {
		caps[i] = cap
	}
	return caps
}

// Name returns the policy label used in metrics and events.
func (p *Policy) Name() string { return p.name }

// K returns the number of links.
func (p *Policy) K() int { return len(p.caps) }

// SetObserver attaches an event observer (nil disables). Call before
// routing starts.
func (p *Policy) SetObserver(o obs.Observer) { p.o = o }

// Instrument registers the routing metric families for this policy on
// the registry and attaches them, replacing any previous instruments:
//
//	dynbw_route_placements_total{policy}  sessions placed on a link
//	dynbw_route_blocked_total{policy}     sessions no link could admit
//	dynbw_route_link_load{link}           reserved nominal rate per link
//	dynbw_route_link_sessions{link}       session count per link
//
// All series exist (at zero) from the moment this returns, so scrapes
// see the full family before any traffic arrives. A nil registry
// detaches metrics: the nil counters count nothing.
func (p *Policy) Instrument(r *obs.Registry) {
	pl := obs.L("policy", p.name)
	p.placed = r.Counter("dynbw_route_placements_total",
		"Sessions the routing tier placed on a backend link.", 1, pl)
	p.blocked = r.Counter("dynbw_route_blocked_total",
		"Sessions the routing tier rejected because no link could admit them.", 1, pl)
	for l := 0; l < len(p.caps); l++ {
		l := LinkID(l)
		ll := obs.L("link", strconv.Itoa(int(l)))
		r.GaugeFunc("dynbw_route_link_load",
			"Reserved nominal rate on each backend link.",
			func() int64 { return int64(p.LoadOf(l)) }, ll)
		r.GaugeFunc("dynbw_route_link_sessions",
			"Sessions currently routed to each backend link.",
			func() int64 { return int64(p.SessionsOf(l)) }, ll)
	}
}

// fits reports whether link l can admit rate with the given headroom
// kept free. Callers must hold mu.
func (p *Policy) fits(l LinkID, rate, headroom bw.Rate) bool {
	return p.load[l]+rate <= p.caps[l]-headroom
}

// Place chooses a link for the session and reserves its rate there, or
// returns Blocked. The router records no session ID: the caller keeps
// the link, and hands it back to Release.
func (p *Policy) Place(s Session) LinkID {
	if s.Rate < 0 {
		panic(fmt.Sprintf("route: negative session rate %d", s.Rate))
	}
	p.mu.Lock()
	l := p.choose(p, s)
	if l != Blocked {
		p.load[l] += s.Rate
		p.num[l]++
	}
	p.mu.Unlock()
	if l == Blocked {
		p.emitBlock(s)
	} else {
		p.emitPlace(s, l)
	}
	return l
}

// Release returns the session's rate to link l, which the caller says
// holds it. It panics if l holds no session or less than s.Rate: a
// release of what was never placed would drive the link's load negative.
func (p *Policy) Release(s Session, l LinkID) {
	p.mu.Lock()
	n, load := p.num[l], p.load[l]
	ok := n > 0 && load >= s.Rate
	if ok {
		p.load[l] -= s.Rate
		p.num[l]--
	}
	p.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("route: release of session %d (rate %d) from link %d, which holds %d sessions at load %d",
			s.ID, s.Rate, l, n, load))
	}
	p.emitRelease(s.ID, l)
}

// Rebalance migrates live sessions, the caller's, to even out link
// loads: while the spread between the most- and least-loaded links can
// be strictly reduced by moving one session, it moves the smallest such
// session, up to limit moves. Each returned Move is already applied to
// the link loads and to live, in place; the caller mirrors it in
// whatever else it keeps per session and accounts one reroute per move —
// the b-matching reconfiguration cost. The selection is deterministic
// (fraction-of-capacity extremes with lowest-index ties, smallest rate
// then smallest ID among candidate sessions), so simulations rebalance
// identically on every run and at any sweep parallelism.
func (p *Policy) Rebalance(limit int, live []Placed) []Move {
	var moves []Move
	p.mu.Lock()
	for len(moves) < limit {
		hi, lo := LinkID(0), LinkID(0)
		for l := 1; l < len(p.caps); l++ {
			if p.frac(LinkID(l)) > p.frac(hi) {
				hi = LinkID(l)
			}
			if p.frac(LinkID(l)) < p.frac(lo) {
				lo = LinkID(l)
			}
		}
		if hi == lo {
			break
		}
		// The smallest session on hi that fits on lo and strictly lowers
		// the pair maximum: after the move hi drops and lo stays below
		// hi's old load, so repeated passes cannot oscillate.
		best := -1
		for i, pl := range live {
			if pl.Link != hi || !p.fits(lo, pl.Rate, 0) || pl.Rate >= p.load[hi]-p.load[lo] {
				continue
			}
			if best < 0 || pl.Rate < live[best].Rate || (pl.Rate == live[best].Rate && pl.ID < live[best].ID) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		s := live[best].Session
		p.load[hi] -= s.Rate
		p.num[hi]--
		p.load[lo] += s.Rate
		p.num[lo]++
		live[best].Link = lo
		moves = append(moves, Move{Session: s.ID, Rate: s.Rate, From: hi, To: lo})
	}
	p.mu.Unlock()
	for _, mv := range moves {
		p.emitReroute(mv)
	}
	return moves
}

// frac returns link l's load as a fraction of capacity. Callers must
// hold mu.
func (p *Policy) frac(l LinkID) float64 {
	if p.caps[l] <= 0 {
		return 0
	}
	return float64(p.load[l]) / float64(p.caps[l])
}

// LoadOf returns link l's reserved nominal rate.
func (p *Policy) LoadOf(l LinkID) bw.Rate {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.load[l]
}

// SessionsOf returns link l's session count.
func (p *Policy) SessionsOf(l LinkID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.num[l]
}

// randomOther picks a uniformly random link other than not. Callers
// must hold mu.
func (p *Policy) randomOther(not LinkID) LinkID {
	k := len(p.caps)
	if k <= 1 {
		return not
	}
	l := LinkID(p.src.Intn(k - 1))
	if l >= not {
		l++
	}
	return l
}

// emitPlace reports a successful placement to the observer and metrics.
func (p *Policy) emitPlace(s Session, l LinkID) {
	if p.o != nil {
		p.o.Event(obs.Event{Type: obs.EventRoutePlace, Session: s.ID,
			Link: int(l), FromLink: -1, NewRate: s.Rate, Rule: p.name})
	}
	p.placed.Inc(0)
}

// emitBlock reports a rejected placement.
func (p *Policy) emitBlock(s Session) {
	if p.o != nil {
		p.o.Event(obs.Event{Type: obs.EventRouteBlock, Session: s.ID,
			Link: -1, FromLink: -1, NewRate: s.Rate, Rule: p.name})
	}
	p.blocked.Inc(0)
}

// emitRelease reports a departed session.
func (p *Policy) emitRelease(id int, l LinkID) {
	if p.o != nil {
		p.o.Event(obs.Event{Type: obs.EventRouteRelease, Session: id,
			Link: int(l), FromLink: -1, Rule: p.name})
	}
}

// emitReroute reports one applied migration.
func (p *Policy) emitReroute(mv Move) {
	if p.o != nil {
		p.o.Event(obs.Event{Type: obs.EventRouteReroute, Session: mv.Session,
			Link: int(mv.To), FromLink: int(mv.From), NewRate: mv.Rate, Rule: p.name})
	}
}
