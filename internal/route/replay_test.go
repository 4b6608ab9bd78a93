package route

import (
	"slices"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/obs"
	"dynbw/internal/rng"
)

// eventLog records every event a policy emits, in order.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Event(e obs.Event) { l.events = append(l.events, e) }

// TestEventsReplayToLoads: the event stream is the trace of the routing
// tier's bookkeeping, so replaying it must rebuild that bookkeeping. For
// each policy, a seeded sequence of Place, Release and Rebalance runs
// against the test's own books of live sessions and their links, and
// after every operation the events so far, replayed into per-link load
// and session counts, must equal LoadOf and SessionsOf on every link.
func TestEventsReplayToLoads(t *testing.T) {
	const k = 4
	for _, p := range []*Policy{
		NewGreedy(Uniform(k, 64)),
		NewDAR(Uniform(k, 64), 3, 5),
		NewP2C(Uniform(k, 64), 9),
	} {
		t.Run(p.Name(), func(t *testing.T) {
			log := &eventLog{}
			p.SetObserver(log)
			type held struct {
				link int
				rate bw.Rate
			}
			where := map[int]held{}
			load := make([]bw.Rate, k)
			num := make([]int, k)
			replay := func(op string, e obs.Event) {
				h, ok := where[e.Session]
				switch e.Type {
				case obs.EventRoutePlace:
					h = held{e.Link, e.NewRate}
					load[h.link] += h.rate
					num[h.link]++
					where[e.Session] = h
				case obs.EventRouteRelease, obs.EventRouteReroute:
					from := e.Link
					if e.Type == obs.EventRouteReroute {
						from = e.FromLink
					}
					if !ok || h.link != from {
						t.Fatalf("%s: %v of session %d from link %d, replay holds it on %+v (known %v)", op, e.Type, e.Session, from, h, ok)
					}
					load[h.link] -= h.rate
					num[h.link]--
					delete(where, e.Session)
					if e.Type == obs.EventRouteReroute {
						load[e.Link] += h.rate
						num[e.Link]++
						where[e.Session] = held{e.Link, h.rate}
					}
				}
			}

			src := rng.New(uint64(len(p.Name())))
			var live []Placed // sessions the test placed and has not released
			for step := 0; step < 2000; step++ {
				seen := len(log.events)
				var op string
				switch r := src.Intn(10); {
				case r < 5:
					op = "Place"
					s := Session{ID: step, Rate: 1 + src.Int64n(8)}
					if l := p.Place(s); l != Blocked {
						live = append(live, Placed{s, l})
					}
				case r < 8 && len(live) > 0:
					op = "Release"
					j := src.Intn(len(live))
					p.Release(live[j].Session, live[j].Link)
					live = slices.Delete(live, j, j+1)
				default:
					op = "Rebalance"
					p.Rebalance(1+src.Intn(3), live)
				}
				for _, e := range log.events[seen:] {
					replay(op, e)
				}
				for l := range num {
					if got := p.LoadOf(LinkID(l)); got != load[l] {
						t.Fatalf("step %d (%s): LoadOf(%d) = %d, replayed events give %d", step, op, l, got, load[l])
					}
					if got := p.SessionsOf(LinkID(l)); got != num[l] {
						t.Fatalf("step %d (%s): SessionsOf(%d) = %d, replayed events give %d", step, op, l, got, num[l])
					}
				}
			}
			if len(where) != len(live) {
				t.Errorf("replay holds %d sessions, the test placed %d it has not released", len(where), len(live))
			}
		})
	}
}
