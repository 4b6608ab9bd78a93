// Package offline implements clairvoyant (offline) bandwidth allocation
// baselines — the comparators in the paper's competitive ratios. The
// offline adversary sees the whole arrival stream in advance and picks a
// piecewise-constant allocation with as few changes as possible, subject
// to maximum bandwidth B_O, per-bit delay D_O, and (optionally) local
// window utilization U_O.
//
// Three comparators bracket the true optimum OPT:
//
//   - Greedy produces an actual feasible schedule by feasibility-interval
//     segmentation; its change count upper-bounds OPT's changes.
//   - ExactMinChanges searches all segmentations of small instances; it is
//     exact and used to validate Greedy.
//   - The stage lower bound comes from the online run itself (Lemma 1:
//     every completed stage forces at least one offline change) and is
//     exposed by core.SingleStats.
package offline

import (
	"errors"
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/trace"
)

// Params bounds the offline algorithm.
type Params struct {
	// B is the maximum bandwidth (B_O).
	B bw.Rate
	// D is the per-bit delay bound (D_O).
	D bw.Tick
	// U is the local-window utilization bound; 0 disables the
	// utilization constraint (the multi-session setting of Section 3).
	U float64
	// W is the utilization window size; required when U > 0. Utilization
	// is enforced over every complete window of the schedule, including
	// windows that cross change points.
	W bw.Tick
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.B < 1:
		return fmt.Errorf("offline: B = %d", p.B)
	case p.D < 0:
		return fmt.Errorf("offline: D = %d", p.D)
	case p.U < 0 || p.U > 1:
		return fmt.Errorf("offline: U = %v", p.U)
	case p.U > 0 && p.W < 1:
		return fmt.Errorf("offline: U > 0 needs W >= 1, got %d", p.W)
	}
	return nil
}

// ErrInfeasible is returned when no feasible schedule exists within the
// given bounds.
var ErrInfeasible = errors.New("offline: infeasible input")

// chunk is backlog carried across a segment boundary: bits with an
// absolute service deadline.
type chunk struct {
	deadline bw.Tick
	bits     bw.Bits
}

// Greedy computes a feasible piecewise-constant schedule for the trace.
// It scans forward from each change point, maintaining the interval
// [lo, hi] of constant rates that stay feasible — lo driven by the delay
// deadlines (including backlog carried over the change point), hi by the
// utilization windows and the bandwidth cap. When the interval empties, a
// change is forced: the finished segment is fixed at its largest feasible
// rate (minimizing carried backlog) and a new segment starts.
func Greedy(tr *trace.Trace, p Params) (*bw.Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sched := &bw.Schedule{}
	n := tr.Len()
	if n == 0 {
		return sched, nil
	}

	s := bw.Tick(0)
	var carry []chunk
	// priorAlloc[i] = total allocation over ticks [0, i) of the segments
	// fixed so far; utilization windows crossing a change point charge
	// the already-fixed rates through it.
	priorAlloc := []bw.Bits{0}
	for {
		rate, segEnd, final, err := planSegment(tr, p, s, carry, priorAlloc)
		if err != nil {
			return nil, err
		}
		stop := segEnd
		if final {
			stop = finalDrainEnd(tr, s, segEnd, carry, rate)
			if stop < n {
				stop = n // cover the whole trace even if it ends idle
			}
		}
		for u := s; u < stop; u++ {
			sched.Set(u, rate)
			priorAlloc = append(priorAlloc, priorAlloc[len(priorAlloc)-1]+rate)
		}
		if final {
			return sched, nil
		}
		carry = serveSegment(tr, p, s, segEnd, carry, rate)
		s = segEnd
	}
}

// planSegment determines the longest segment starting at s with one
// feasible constant rate, and picks that rate. It returns final = true
// when the segment covers the rest of the input.
func planSegment(tr *trace.Trace, p Params, s bw.Tick, carry []chunk, priorAlloc []bw.Bits) (rate bw.Rate, segEnd bw.Tick, final bool, err error) {
	n := tr.Len()
	lowW := core.NewLowTracker(p.D)

	var carryTotal bw.Bits
	lo := bw.Rate(0)
	// Carry deadlines: all bits due by each carried deadline must fit.
	var due bw.Bits
	for _, c := range carry {
		due += c.bits
		carryTotal += c.bits
		if c.deadline < s {
			return 0, 0, false, fmt.Errorf("%w: carried deadline %d already passed at tick %d",
				ErrInfeasible, c.deadline, s)
		}
		if need := bw.RateOver(due, c.deadline-s+1); need > lo {
			lo = need
		}
	}

	hi := p.B
	for t := s; t < n; t++ {
		a := tr.At(t)
		newLo := lo
		if wl := lowW.Observe(a); wl > newLo {
			newLo = wl
		}
		// Deadline t+D covers the carry plus everything arrived so far.
		if need := bw.RateOver(carryTotal+tr.Window(s, t+1), t+p.D-s+1); need > newLo {
			newLo = need
		}
		newHi := hi
		if p.U > 0 {
			if h := utilizationCap(tr, p, s, t, priorAlloc); h < newHi {
				newHi = h
			}
		}
		if newLo > newHi {
			if t == s {
				if newLo > p.B {
					return 0, 0, false, fmt.Errorf("%w: tick %d needs rate %d > B = %d",
						ErrInfeasible, t, newLo, p.B)
				}
				// The conflict is between a deadline and a utilization
				// window that charges allocation fixed before this
				// segment: a clairvoyant offline would have deallocated
				// earlier, but greedy has already committed. Patch with a
				// one-tick segment at the delay-driven rate; the
				// utilization bound is best-effort on windows overlapping
				// this change point.
				return newLo, s + 1, false, nil
			}
			return hi, t, false, nil
		}
		lo, hi = newLo, newHi
	}
	// The segment reaches the end of the input: the smallest feasible
	// rate wastes the least bandwidth while still meeting every deadline.
	return lo, n, true, nil
}

// utilizationCap returns the largest segment rate that keeps the
// utilization bound satisfied on the complete window of W ticks ending at
// t: IN(window) >= U * (priorAlloc(window portion before s) + rate *
// in-segment portion). Windows that do not fit in the trace yet are
// unconstrained; a window whose fixed prior allocation already violates
// the bound caps the rate at zero (the gap is then absorbed by a
// zero-rate segment).
func utilizationCap(tr *trace.Trace, p Params, s, t bw.Tick, priorAlloc []bw.Bits) bw.Rate {
	a := t - p.W + 1
	if a < 0 {
		return p.B // incomplete leading window: unconstrained
	}
	in := tr.Window(a, t+1)
	var fixed bw.Bits
	if a < s {
		fixed = priorAlloc[s] - priorAlloc[a]
	}
	segLen := t - s + 1
	if segLen > p.W {
		segLen = p.W
	}
	budget := float64(in)/p.U - float64(fixed)
	if budget <= 0 {
		return 0
	}
	h := bw.Rate(budget / float64(segLen))
	if h > p.B {
		return p.B
	}
	return h
}

// serveSegment simulates FIFO service of carry + arrivals over [s, end) at
// the given rate and returns the backlog (with deadlines) left at end.
func serveSegment(tr *trace.Trace, p Params, s, end bw.Tick, carry []chunk, rate bw.Rate) []chunk {
	q := make([]chunk, 0, len(carry)+int(end-s))
	q = append(q, carry...)
	head := 0
	for t := s; t < end; t++ {
		if a := tr.At(t); a > 0 {
			q = append(q, chunk{deadline: t + p.D, bits: a})
		}
		budget := rate
		for budget > 0 && head < len(q) {
			c := &q[head]
			took := min(budget, c.bits)
			c.bits -= took
			budget -= took
			if c.bits == 0 {
				head++
			}
		}
	}
	rest := q[head:]
	out := make([]chunk, len(rest))
	copy(out, rest)
	return out
}

// finalDrainEnd returns the tick by which the final segment at the given
// rate has served all remaining input, so the schedule can be padded that
// far.
func finalDrainEnd(tr *trace.Trace, s, n bw.Tick, carry []chunk, rate bw.Rate) bw.Tick {
	var pending bw.Bits
	for _, c := range carry {
		pending += c.bits
	}
	pending += tr.Window(s, n)
	if pending == 0 {
		return s
	}
	if rate == 0 {
		// planSegment only returns rate 0 when nothing is pending.
		panic("offline: zero final rate with pending bits")
	}
	// Service happens at `rate` per tick from s on, but bits cannot be
	// served before they arrive; simulate coarsely.
	var served bw.Bits
	for _, c := range carry {
		served += c.bits // available immediately
	}
	backlog := served
	t := s
	for {
		if t < n {
			backlog += tr.At(t)
		}
		take := min(rate, backlog)
		backlog -= take
		pending -= take
		t++
		if pending <= 0 && t >= n {
			return t
		}
		if t > n+pendingDrainCap(rate, tr.Total()) {
			panic("offline: final drain did not terminate")
		}
	}
}

func pendingDrainCap(rate bw.Rate, total bw.Bits) bw.Tick {
	return bw.Tick(total/max(rate, 1)) + 16
}

// VerifySchedule checks that the schedule serves the trace within the
// delay and bandwidth bounds of p: every bit is served at most p.D ticks
// after arrival and no tick allocates more than p.B. It returns nil when
// the schedule is feasible.
func VerifySchedule(tr *trace.Trace, sched *bw.Schedule, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if m := sched.MaxRate(); m > p.B {
		return fmt.Errorf("offline: schedule peak %d exceeds B = %d", m, p.B)
	}
	n := sched.Len()
	if n < tr.Len() {
		return fmt.Errorf("offline: schedule covers %d of %d ticks", n, tr.Len())
	}
	var q []chunk
	head := 0
	cur := sched.Cursor()
	for t := bw.Tick(0); t < n; t++ {
		if a := tr.At(t); a > 0 {
			q = append(q, chunk{deadline: t + p.D, bits: a})
		}
		budget := cur.At(t)
		for budget > 0 && head < len(q) {
			c := &q[head]
			took := min(budget, c.bits)
			c.bits -= took
			budget -= took
			if c.bits == 0 {
				head++
			}
		}
		if head < len(q) && q[head].deadline <= t {
			return fmt.Errorf("offline: deadline %d missed at tick %d", q[head].deadline, t)
		}
	}
	if head < len(q) {
		return fmt.Errorf("offline: %d chunks unserved at end of schedule", len(q)-head)
	}
	return nil
}
