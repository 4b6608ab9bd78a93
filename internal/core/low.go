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
// tangent from the query point, giving O(log stage) per tick. The hull
// and a brute-force reference are cross-checked by property tests.
type LowTracker struct {
	d bw.Tick
	// cum[i] = arrivals observed in the first i ticks of the stage.
	cum []bw.Bits
	// hull holds indices j into cum forming the lower convex hull of the
	// points (j, cum[j]).
	hull []int32
	low  bw.Rate
}

// NewLowTracker returns a tracker for a stage with offline delay bound d.
func NewLowTracker(d bw.Tick) *LowTracker {
	return &LowTracker{d: d, cum: []bw.Bits{0}}
}

// Reset re-arms the tracker for a fresh stage with the same delay bound,
// keeping the cumulative-arrival and hull storage. A reset tracker is
// indistinguishable from a newly constructed one; reusing it across
// stages removes the per-stage allocations the simulator hot path
// otherwise pays (profiling showed them dominating sim.Run).
func (lt *LowTracker) Reset() {
	lt.cum = lt.cum[:1]
	lt.cum[0] = 0
	lt.hull = lt.hull[:0]
	lt.low = 0
}

// Observe records the arrivals of the next tick of the stage and returns
// the updated low value.
func (lt *LowTracker) Observe(arrived bw.Bits) bw.Rate {
	// The previous cumulative point becomes a usable window start.
	lt.pushHull(int32(len(lt.cum) - 1))
	m := bw.Tick(len(lt.cum))
	lt.cum = append(lt.cum, lt.cum[m-1]+arrived) // bwlint:allocok amortized: one point per tick of the stage, storage kept across Reset

	// Query: maximize (C(m) - C(j)) / (m + d - j) over hull points j.
	qx := m + lt.d
	qy := lt.cum[m]
	j := lt.bestStart(qx, qy)
	num := qy - lt.cum[j]
	den := qx - bw.Tick(j)
	if cand := bw.RateOver(num, den); cand > lt.low {
		lt.low = cand
	}
	return lt.low
}

// Low returns the current low value.
func (lt *LowTracker) Low() bw.Rate { return lt.low }

// Ticks returns how many ticks have been observed.
func (lt *LowTracker) Ticks() bw.Tick { return bw.Tick(len(lt.cum) - 1) }

// pushHull adds point (j, cum[j]) to the lower hull.
func (lt *LowTracker) pushHull(j int32) {
	for len(lt.hull) >= 2 {
		a := lt.hull[len(lt.hull)-2]
		b := lt.hull[len(lt.hull)-1]
		// Pop b if a->b->j is a non-left turn (b is on or above the
		// segment a->j), i.e. slope(a,b) >= slope(b,j).
		if !slopeLess(lt.point(a), lt.point(b), lt.point(b), lt.point(int32(j))) {
			lt.hull = lt.hull[:len(lt.hull)-1]
			continue
		}
		break
	}
	lt.hull = append(lt.hull, j) // bwlint:allocok amortized with cum
}

type hullPoint struct {
	x bw.Tick
	y bw.Bits
}

func (lt *LowTracker) point(j int32) hullPoint {
	return hullPoint{x: bw.Tick(j), y: lt.cum[j]}
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

// bestStart returns the hull index j maximizing (qy - cum[j]) / (qx - j).
// The slope from the external query point (qx, qy), with qx greater than
// every hull x, is unimodal along the lower hull, so a binary search on
// the discrete derivative finds the peak.
func (lt *LowTracker) bestStart(qx bw.Tick, qy bw.Bits) int32 {
	lo, hi := 0, len(lt.hull)-1
	for hi-lo >= 2 {
		mid := (lo + hi) / 2
		if lt.slopeToQ(lt.hull[mid], qx, qy, lt.hull[mid+1]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best := lt.hull[lo]
	for i := lo + 1; i <= hi; i++ {
		j := lt.hull[i]
		if lt.slopeToQ(best, qx, qy, j) {
			best = j
		}
	}
	return best
}

// slopeToQ reports whether slope(point b, Q) > slope(point a, Q), i.e.
// whether b is a strictly better window start than a.
func (lt *LowTracker) slopeToQ(a int32, qx bw.Tick, qy bw.Bits, b int32) bool {
	// (qy-cum[b])/(qx-b) > (qy-cum[a])/(qx-a)
	return cmp128(qy-lt.cum[b], qx-bw.Tick(a), qy-lt.cum[a], qx-bw.Tick(b)) > 0
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
