package bw

import (
	"fmt"
	"sort"
)

// Schedule records a piecewise-constant bandwidth allocation over time.
// It is the object whose number of change points the paper's algorithms
// minimize. A Schedule is built tick by tick with Set; it tracks change
// points (any tick where the recorded rate differs from the previous tick)
// and supports window integrals of the allocation, which the utilization
// metric needs.
//
// The zero value is an empty schedule starting at tick 0 with rate 0.
type Schedule struct {
	// segs holds the change points: segs[i] says "from tick Start on, the
	// rate is Rate". Starts are strictly increasing. An initial segment
	// {Start: 0, Rate: 0} is implicit until the first Set.
	segs []Segment
	// end is one past the last tick recorded via Set.
	end Tick
	// cum[i] is the total allocation (rate x ticks) from tick 0 up to,
	// but not including, segs[i].Start.
	cum []Bits
}

// Segment is one constant-rate piece of a Schedule.
type Segment struct {
	Start Tick
	Rate  Rate
}

// Set records that the allocation at tick t is r. Ticks must be recorded in
// nondecreasing order; re-setting the current tick overwrites it only if no
// later tick has been recorded. Gaps are not allowed: t must equal Len().
func (s *Schedule) Set(t Tick, r Rate) {
	if t != s.end {
		panic(fmt.Sprintf("bw: Schedule.Set(%d) out of order, want %d", t, s.end))
	}
	s.end = t + 1
	if len(s.segs) == 0 {
		if r == 0 {
			return // implicit leading zero segment
		}
		if t > 0 {
			s.segs = append(s.segs, Segment{Start: 0, Rate: 0})
			s.cum = append(s.cum, 0)
		}
		s.appendSeg(t, r)
		return
	}
	last := s.segs[len(s.segs)-1]
	if last.Rate == r {
		return
	}
	s.appendSeg(t, r)
}

func (s *Schedule) appendSeg(t Tick, r Rate) {
	var c Bits
	if n := len(s.segs); n > 0 {
		prev := s.segs[n-1]
		c = s.cum[n-1] + prev.Rate*(t-prev.Start)
	}
	s.segs = append(s.segs, Segment{Start: t, Rate: r})
	s.cum = append(s.cum, c)
}

// Len returns the number of ticks recorded.
func (s *Schedule) Len() Tick { return s.end }

// Reset empties the schedule while keeping the segment and prefix-sum
// storage, so a Schedule reused across simulation runs (sim.Runner)
// reaches a steady state of zero allocations per run.
func (s *Schedule) Reset() {
	s.segs = s.segs[:0]
	s.cum = s.cum[:0]
	s.end = 0
}

// At returns the rate recorded at tick t. Ticks outside [0, Len()) report 0.
func (s *Schedule) At(t Tick) Rate {
	if t < 0 || t >= s.end || len(s.segs) == 0 {
		return 0
	}
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].Start > t }) - 1
	if i < 0 {
		return 0
	}
	return s.segs[i].Rate
}

// Cursor returns a positioned reader over the schedule, for consumers
// that scan many ticks or windows. Where At and Integral binary-search
// the segment list on every call (O(log s)), a Cursor remembers the
// segment it last landed on and steps linearly from there, making any
// monotone — or merely local — access pattern amortized O(1) per call.
// All full-scan consumers (metrics window scans, Sum, series extraction,
// the offline feasibility check) use it.
//
// A Cursor reads through the Schedule it came from; it stays valid as
// long as the schedule is only appended to with Set, and is invalidated
// by Reset.
type Cursor struct {
	s *Schedule
	i int // index of the segment last landed on; -1 before the first
}

// Cursor returns a new cursor positioned before the first segment.
func (s *Schedule) Cursor() Cursor { return Cursor{s: s, i: -1} }

// seek moves c.i to the last segment with Start <= t (-1 when t precedes
// every segment), stepping from the current position in either direction.
func (c *Cursor) seek(t Tick) {
	segs := c.s.segs
	for c.i+1 < len(segs) && segs[c.i+1].Start <= t {
		c.i++
	}
	for c.i >= 0 && segs[c.i].Start > t {
		c.i--
	}
}

// At returns the rate recorded at tick t, like Schedule.At.
func (c *Cursor) At(t Tick) Rate {
	if t < 0 || t >= c.s.end || len(c.s.segs) == 0 {
		return 0
	}
	c.seek(t)
	if c.i < 0 {
		return 0
	}
	return c.s.segs[c.i].Rate
}

// Prefix returns the total allocation over [0, t), like the schedule's
// internal prefix, clamping t to [0, Len()].
func (c *Cursor) Prefix(t Tick) Bits {
	if t <= 0 || len(c.s.segs) == 0 {
		return 0
	}
	if t > c.s.end {
		t = c.s.end
	}
	c.seek(t - 1)
	if c.i < 0 {
		return 0
	}
	seg := c.s.segs[c.i]
	return c.s.cum[c.i] + seg.Rate*(t-seg.Start)
}

// Integral returns the total allocation over ticks [a, b), like
// Schedule.Integral.
func (c *Cursor) Integral(a, b Tick) Bits {
	if a < 0 {
		a = 0
	}
	if b > c.s.end {
		b = c.s.end
	}
	if a >= b || len(c.s.segs) == 0 {
		return 0
	}
	return c.Prefix(b) - c.Prefix(a)
}

// Changes returns the number of allocation changes. Following the paper,
// the initial allocation at tick 0 counts as a change if it is nonzero
// (establishing the first allocation is itself a setup operation), and every
// subsequent rate transition counts as one change.
func (s *Schedule) Changes() int {
	n := len(s.segs)
	if n == 0 {
		return 0
	}
	if s.segs[0].Rate == 0 {
		return n - 1
	}
	return n
}

// Equal reports whether the two schedules assign the same rate to every
// tick. Segments are stored canonically (one per change point), so this
// is a direct structural comparison.
func (s *Schedule) Equal(o *Schedule) bool {
	if s.end != o.end || len(s.segs) != len(o.segs) {
		return false
	}
	for i, seg := range s.segs {
		if o.segs[i] != seg {
			return false
		}
	}
	return true
}

// Segments returns a copy of the change points.
func (s *Schedule) Segments() []Segment {
	out := make([]Segment, len(s.segs))
	copy(out, s.segs)
	return out
}

// Integral returns the total allocation (sum of rates) over ticks [a, b).
// The range is clamped to [0, Len()).
func (s *Schedule) Integral(a, b Tick) Bits {
	if a < 0 {
		a = 0
	}
	if b > s.end {
		b = s.end
	}
	if a >= b || len(s.segs) == 0 {
		return 0
	}
	return s.prefix(b) - s.prefix(a)
}

// prefix returns total allocation over [0, t).
func (s *Schedule) prefix(t Tick) Bits {
	if t <= 0 || len(s.segs) == 0 {
		return 0
	}
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].Start >= t }) - 1
	if i < 0 {
		return 0
	}
	seg := s.segs[i]
	return s.cum[i] + seg.Rate*(t-seg.Start)
}

// MaxRate returns the largest rate ever recorded.
func (s *Schedule) MaxRate() Rate {
	var m Rate
	for _, seg := range s.segs {
		if seg.Rate > m {
			m = seg.Rate
		}
	}
	return m
}

// Rates expands the schedule into a per-tick rate slice of length Len().
func (s *Schedule) Rates() []Rate {
	out := make([]Rate, s.end)
	for i, seg := range s.segs {
		stop := s.end
		if i+1 < len(s.segs) {
			stop = s.segs[i+1].Start
		}
		for t := seg.Start; t < stop; t++ {
			out[t] = seg.Rate
		}
	}
	return out
}

// Sum returns the element-wise sum of the given schedules expanded to the
// longest length, as a fresh Schedule. It is used to aggregate per-session
// allocations into a total-bandwidth schedule.
func Sum(scheds ...*Schedule) *Schedule {
	total := &Schedule{}
	SumInto(total, scheds...)
	return total
}

// SumInto is Sum writing into dst, which is Reset first; its segment
// storage is reused, so repeated aggregation (the MultiRunner steady
// state) does not allocate once dst has grown to working size.
func SumInto(dst *Schedule, scheds ...*Schedule) {
	dst.Reset()
	var n Tick
	for _, sc := range scheds {
		if sc.Len() > n {
			n = sc.Len()
		}
	}
	curs := make([]Cursor, len(scheds))
	for i, sc := range scheds {
		curs[i] = sc.Cursor()
	}
	for t := Tick(0); t < n; t++ {
		var r Rate
		for i := range curs {
			r += curs[i].At(t)
		}
		dst.Set(t, r)
	}
}
