package route

import (
	"errors"
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/sim"
	"dynbw/internal/traffic"
)

// Config wires a routing run: the placement policy under test, the
// per-link allocation policy, and the optional rebalance cadence.
type Config struct {
	// Router places sessions on its links, whose capacities it holds, and
	// when RebalanceEvery is positive migrates live ones. It must have no
	// load on it: Run places session i under ID i and releases every
	// session it placed.
	Router *Policy
	// Alloc builds the k-session policy a link runs over its k = cap/Rate
	// slots, as a gateway shard runs one over its slots.
	Alloc func(k int, cap bw.Rate) (sim.SparseAllocator, error)
	// RebalanceEvery, when positive, runs a rebalance pass every that
	// many ticks (at most RebalanceLimit moves per pass).
	RebalanceEvery bw.Tick
	// RebalanceLimit bounds moves per rebalance pass; zero means 1.
	RebalanceLimit int
}

// Result aggregates one routing run. TotalCost is the two-level cost
// measure: the paper's allocation changes summed over links, plus one
// per reroute in the b-matching style.
type Result struct {
	Offered  int // sessions that arrived
	Placed   int // sessions some link admitted
	Blocked  int // sessions no link could admit
	Reroutes int // rebalance migrations
	// OverflowTicks counts link-ticks where routed arrivals exceeded the
	// link's full-capacity service for one tick.
	OverflowTicks int
	// Changes sums the rate changes of every link's slots.
	Changes int
	// Served is the bits transmitted; Dropped the bits still pending or
	// queued when their session departed (and any the kernel policed),
	// which no link serves. Together they are every routed bit.
	Served, Dropped bw.Bits
	// MaxDelay is the worst per-bit delay across links. A bit a reroute
	// moved counts the wait before the move as well as after it.
	MaxDelay bw.Tick
	// LinkBits is the bits sessions emitted on each link, for balance
	// metrics; a reroute's backlog counts on the link it arrived on.
	LinkBits []bw.Bits
	// TotalCost is Changes + Reroutes.
	TotalCost int
}

// link is one backend link as a gateway shard runs it: a slot table of
// cap/Rate slots under a k-session policy.
type link struct {
	slots sim.Slots
	alloc sim.SparseAllocator
	in    bw.Bits // the bits sessions emitted on the link this tick
}

// tenant is a placed session's place and, after a reroute, what it
// carried: the age its backlog's oldest bit had at the move, and how
// many of the slot's first served bits are that backlog.
type tenant struct {
	link  LinkID
	slot  int
	carry bw.Tick
	owe   bw.Bits
}

// Run plays the churn workload against the router and runs every link as
// a gateway shard: an arriving session takes its link's lowest free slot,
// every link steps its slots each tick, and a departure empties the slot
// and tells the link's policy. Within a tick the order is departures,
// arrivals, rebalance, bit emission, then the links' rounds, and the
// active-session list stays in arrival order, so runs are deterministic.
func Run(w traffic.Churn, cfg Config) (*Result, error) {
	sessions, err := w.Sessions()
	if err != nil {
		return nil, err
	}
	return run(sessions, w.Rate, cfg)
}

// run is Run over realised sessions, each placed with the nominal rate.
func run(sessions []traffic.Session, rate bw.Rate, cfg Config) (*Result, error) {
	if cfg.Router == nil {
		return nil, errors.New("route: Config.Router is nil")
	}
	if cfg.Alloc == nil {
		return nil, errors.New("route: Config.Alloc is nil")
	}
	caps := cfg.Router.caps
	for l := range caps {
		if n := cfg.Router.SessionsOf(LinkID(l)); n != 0 {
			return nil, fmt.Errorf("route: Config.Router holds %d sessions on link %d", n, l)
		}
	}
	links := make([]link, len(caps))
	for i, c := range caps {
		k := int(c / rate)
		alloc, err := cfg.Alloc(k, c)
		if err != nil {
			return nil, fmt.Errorf("route: link %d allocator: %w", i, err)
		}
		links[i] = link{slots: sim.NewSlots(k), alloc: alloc}
	}
	var lastEnd bw.Tick
	for _, s := range sessions {
		lastEnd = max(lastEnd, s.End)
	}
	limit := max(cfg.RebalanceLimit, 1)

	res := &Result{LinkBits: make([]bw.Bits, len(links))}
	ten := make([]tenant, len(sessions))
	var active []int  // placed sessions, in arrival order
	var live []Placed // active, with their links, for each rebalance pass
	var r sim.Round   // each link's round, in turn
	next := 0
	for t := bw.Tick(0); t <= lastEnd; t++ {
		keep := active[:0]
		for _, id := range active {
			if sessions[id].End > t {
				keep = append(keep, id)
				continue
			}
			cfg.Router.Release(Session{ID: id, Rate: rate}, ten[id].link)
			res.Dropped += res.vacate(links, &ten[id]).Dropped
		}
		active = keep

		for next < len(sessions) && sessions[next].Arr == t {
			id := next
			next++
			res.Offered++
			l := cfg.Router.Place(Session{ID: id, Rate: rate})
			if l == Blocked {
				res.Blocked++
				continue
			}
			res.Placed++
			// The router admits at most cap/Rate sessions: a slot is free,
			// and its rate changes while free are in the rounds' count.
			slot, _, _ := links[l].slots.Seat()
			ten[id] = tenant{link: l, slot: slot}
			active = append(active, id)
		}

		if cfg.RebalanceEvery > 0 && t > 0 && t%cfg.RebalanceEvery == 0 {
			live = live[:0]
			for _, id := range active {
				live = append(live, Placed{Session{ID: id, Rate: rate}, ten[id].link})
			}
			for _, mv := range cfg.Router.Rebalance(limit, live) {
				res.Reroutes++
				res.move(links, &ten[mv.Session], mv.To, t)
			}
		}

		for _, id := range active {
			tn := &ten[id]
			l := &links[tn.link]
			if q := l.slots.Queue(tn.slot); tn.owe > 0 && q.Served() >= tn.owe {
				// The backlog the move carried is served: fold its delay
				// before later bits share the counter.
				res.MaxDelay = max(res.MaxDelay, q.MaxDelay()+tn.carry)
				tn.owe = 0
			}
			s := &sessions[id]
			b := s.Bits[t-s.Arr]
			l.in += b
			res.LinkBits[tn.link] += b
			res.Dropped += l.slots.Add(tn.slot, b)
		}

		for i := range links {
			l := &links[i]
			if l.in > bw.Volume(caps[i], 1) {
				res.OverflowTicks++
			}
			l.in = 0
			if err := l.slots.Step(t, l.alloc, &r); err != nil {
				return nil, fmt.Errorf("route: link %d: %w", i, err)
			}
			res.Changes += r.Changes
			res.Served += r.Served
			res.Dropped += r.Policed
		}
	}
	res.TotalCost = res.Changes + res.Reroutes
	return res, nil
}

// vacate ends a tenant's tenancy of its slot as a gateway shard's release
// does, and the tenancy's delays join MaxDelay. While a moved backlog is
// still being served, every bit the slot served is one of it, and none of
// those waited more than carry ticks beyond what its stamp on this link
// says.
func (res *Result) vacate(links []link, tn *tenant) sim.Tenancy {
	l := &links[tn.link]
	u := l.slots.Unseat(tn.slot, l.alloc)
	if tn.owe > 0 && u.Served > 0 {
		u.MaxDelay += tn.carry
	}
	res.MaxDelay = max(res.MaxDelay, u.MaxDelay)
	return u
}

// move reroutes a tenant to link to at tick t: its backlog leaves the old
// slot and is handed to a free slot on the new link, whose policy hears
// it as the tick's arrivals. The move keeps the age of the backlog's
// oldest bit, which the new link's queue stamps as arriving at t.
func (res *Result) move(links []link, tn *tenant, to LinkID, t bw.Tick) {
	q := links[tn.link].slots.Queue(tn.slot)
	var carry bw.Tick
	if at, ok := q.Oldest(); ok {
		carry = t - at
		if tn.owe > q.Served() {
			carry += tn.carry // the oldest bit is one an earlier move carried
		}
	}
	backlog := res.vacate(links, tn).Dropped
	slot, _, _ := links[to].slots.Seat()
	*tn = tenant{link: to, slot: slot}
	res.Dropped += links[to].slots.Add(tn.slot, backlog)
	tn.carry, tn.owe = carry, backlog
}
