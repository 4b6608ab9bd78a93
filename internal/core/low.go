package core

import (
	"math/bits"

	"dynbw/internal/bw"
)

// LowTracker incrementally computes the paper's low(t): the smallest
// bandwidth that could deliver, within the offline delay bound DO, the
// bits received in any window of the current stage ending at the present
// tick. Under the assumption that the offline algorithm has not changed
// its allocation since the stage started, low(t) is a lower bound on that
// allocation.
//
// In the discrete model, after observing arrivals a(ts), ..., a(t):
//
//	low(t) = max over 1 <= w <= t-ts+1 of ceil( IN[t-w+1 .. t] / (w + DO) )
//
// and low is nondecreasing within a stage (the paper's identity
// low(t) = max(low(t-1), max_w ...) holds because windows ending before t
// were already accounted for).
//
// The naive evaluation is O(stage length) per tick. This tracker instead
// maintains the lower convex hull of the cumulative-arrival points
// (j, C(j)) and finds the maximizing window with a binary search for the
// tangent from the query point, giving O(log hull) per tick. The hull
// and a brute-force reference are cross-checked by property tests.
//
// The tracker keeps the hull and nothing else of the stage: the points
// themselves, a tick count and the running total. A point on or above
// the segment between its neighbours is popped as the next one arrives,
// so a stage that idles, or receives at a constant rate, holds two or
// three points however long it lasts — a gateway's stage may never end.
// Memory follows the hull, not the clock; an arrival curve that stays
// strictly convex (a rate that keeps increasing) still adds a point a
// tick.
type LowTracker struct {
	d bw.Tick
	// n ticks of the stage have been observed and total bits arrived in
	// them: (n, total) is the newest cumulative point.
	n     bw.Tick
	total bw.Bits
	// hull is the lower convex hull of the cumulative points (j, C(j)),
	// j < n: the window starts still worth considering.
	hull []hullPoint
	low  bw.Rate
}

// NewLowTracker returns a tracker for a stage with offline delay bound d.
func NewLowTracker(d bw.Tick) *LowTracker {
	return &LowTracker{d: d}
}

// Reset re-arms the tracker for a fresh stage with the same delay bound,
// keeping the hull storage. A reset tracker is indistinguishable from a
// newly constructed one; reusing it across stages removes the per-stage
// allocations the simulator hot path otherwise pays (profiling showed
// them dominating sim.Run).
func (lt *LowTracker) Reset() {
	lt.n, lt.total = 0, 0
	lt.hull = lt.hull[:0]
	lt.low = 0
}

// Observe records the arrivals of the next tick of the stage and returns
// the updated low value.
func (lt *LowTracker) Observe(arrived bw.Bits) bw.Rate {
	// The previous cumulative point becomes a usable window start.
	lt.pushHull(hullPoint{x: lt.n, y: lt.total})
	lt.n++
	lt.total += arrived

	// Query: maximize (C(n) - C(j)) / (n + d - j) over hull points j.
	q := hullPoint{x: lt.n + lt.d, y: lt.total}
	j := lt.bestStart(q)
	if cand := bw.RateOver(q.y-j.y, q.x-j.x); cand > lt.low {
		lt.low = cand
	}
	return lt.low
}

// Low returns the current low value.
func (lt *LowTracker) Low() bw.Rate { return lt.low }

// Ticks returns how many ticks have been observed.
func (lt *LowTracker) Ticks() bw.Tick { return lt.n }

// pushHull adds point p, to the right of every point held, to the lower
// hull.
func (lt *LowTracker) pushHull(p hullPoint) {
	for len(lt.hull) >= 2 {
		a := lt.hull[len(lt.hull)-2]
		b := lt.hull[len(lt.hull)-1]
		// Pop b if a->b->p is a non-left turn (b is on or above the
		// segment a->p), i.e. slope(a,b) >= slope(b,p).
		if !slopeLess(a, b, b, p) {
			lt.hull = lt.hull[:len(lt.hull)-1]
			continue
		}
		break
	}
	lt.hull = append(lt.hull, p)
}

type hullPoint struct {
	x bw.Tick
	y bw.Bits
}

// slopeLess reports whether slope(p1, p2) < slope(p3, p4), comparing
// exactly with 128-bit cross multiplication. All x deltas must be positive.
func slopeLess(p1, p2, p3, p4 hullPoint) bool {
	// (p2.y-p1.y)/(p2.x-p1.x) < (p4.y-p3.y)/(p4.x-p3.x)
	return cmp128(p2.y-p1.y, p4.x-p3.x, p4.y-p3.y, p2.x-p1.x) < 0
}

// cmp128 compares a*b with c*d for non-negative b, d and possibly
// negative a, c using 128-bit arithmetic.
func cmp128(a, b, c, d int64) int {
	an, cn := a < 0, c < 0
	if an && !cn {
		return -1
	}
	if !an && cn {
		return 1
	}
	ua, uc := uint64(a), uint64(c)
	if an {
		ua, uc = uint64(-a), uint64(-c)
	}
	hi1, lo1 := bits.Mul64(ua, uint64(b))
	hi2, lo2 := bits.Mul64(uc, uint64(d))
	cmp := 0
	if hi1 != hi2 {
		if hi1 < hi2 {
			cmp = -1
		} else {
			cmp = 1
		}
	} else if lo1 != lo2 {
		if lo1 < lo2 {
			cmp = -1
		} else {
			cmp = 1
		}
	}
	if an { // both negative: order flips
		cmp = -cmp
	}
	return cmp
}

// bestStart returns the hull point j maximizing (q.y - j.y) / (q.x - j.x).
// The slope from the external query point q, with q.x greater than every
// hull x, is unimodal along the lower hull, so a binary search on the
// discrete derivative finds the peak.
func (lt *LowTracker) bestStart(q hullPoint) hullPoint {
	lo, hi := 0, len(lt.hull)-1
	for hi-lo >= 2 {
		mid := (lo + hi) / 2
		if betterStart(lt.hull[mid], lt.hull[mid+1], q) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best := lt.hull[lo]
	for _, p := range lt.hull[lo+1 : hi+1] {
		if betterStart(best, p, q) {
			best = p
		}
	}
	return best
}

// betterStart reports whether slope(b, q) > slope(a, q), i.e. whether b
// is a strictly better window start than a.
func betterStart(a, b, q hullPoint) bool {
	// (q.y-b.y)/(q.x-b.x) > (q.y-a.y)/(q.x-a.x)
	return cmp128(q.y-b.y, q.x-a.x, q.y-a.y, q.x-b.x) > 0
}

// naiveLow is the O(n) reference implementation used by tests: the maximum
// over all windows ending at the last observed tick and all earlier ticks.
func naiveLow(arrivals []bw.Bits, d bw.Tick) bw.Rate {
	var low bw.Rate
	n := bw.Tick(len(arrivals))
	cum := make([]bw.Bits, n+1)
	for i, a := range arrivals {
		cum[i+1] = cum[i] + a
	}
	for t := bw.Tick(0); t < n; t++ {
		for a := bw.Tick(0); a <= t; a++ {
			in := cum[t+1] - cum[a]
			if cand := bw.RateOver(in, t-a+1+d); cand > low {
				low = cand
			}
		}
	}
	return low
}
