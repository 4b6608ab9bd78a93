// Package queue implements the FIFO fluid queue Q of the paper: bits that
// have arrived at the sending end but have not yet been transmitted. The
// queue tracks the arrival tick of every bit so that per-bit delay — the
// paper's latency metric — can be measured exactly.
//
// A queue is served one tick at a time (Serve) or over a run of ticks at
// one rate (ServeSpan), which is how the paper's model serves Q between
// two allocation changes: the run costs a step per arrival tick it
// reaches, not a step per tick, and leaves the queue exactly as the
// ticks served one by one would.
package queue

import (
	"fmt"

	"dynbw/internal/bw"
)

// chunk is a run of bits that arrived in the same tick.
type chunk struct {
	arrived bw.Tick
	bits    bw.Bits
}

// FIFO is a first-in-first-out fluid queue with per-bit arrival times.
// The zero value is an empty queue.
//
// The oldest chunk lives in the FIFO itself. Between rounds a live slot
// holds one arrival tick's bits or none, so that is all most queues ever
// need; the chunks behind it, their sum, and an attached histogram live
// in a side struct allocated on first need. The queue keeps no total of
// its own: Bits adds the head to the side struct's sum.
type FIFO struct {
	// head is the oldest queued chunk; head.bits is 0 exactly when the
	// queue is empty.
	head chunk

	// maxDelay is the largest delay of any bit served so far.
	maxDelay bw.Tick
	// served is the total number of bits served.
	served bw.Bits
	// more is nil until the queue first holds two arrival ticks at once
	// or a histogram is attached.
	more *backlog
}

// backlog is the part of a FIFO that a queue holding one arrival tick
// does without.
type backlog struct {
	// ring holds the chunks queued behind head, n of them from ring[start]
	// on, in arrival order. Its length is zero or a power of two. start
	// returns to 0 whenever the ring empties, and the ring grows only when
	// full, so its length is bounded by the most arrival ticks ever queued
	// at once, not by how many have passed through.
	ring     []chunk
	start, n int
	// rest is the bits of the n chunks in ring.
	rest bw.Bits
	// hist, when attached (DelayHist.Attach), receives the delay of every
	// served bit. A live service slot attaches none: it reads only
	// maxDelay and served, so it pays for neither the buckets nor the
	// per-chunk record.
	hist *DelayHist
}

// Push adds bits arriving at tick t. Pushes must have nondecreasing ticks.
func (q *FIFO) Push(t bw.Tick, bits bw.Bits) {
	if bits < 0 {
		panic(fmt.Sprintf("queue: Push negative bits %d", bits))
	}
	if bits == 0 {
		return
	}
	if q.head.bits == 0 {
		q.head = chunk{arrived: t, bits: bits}
		return
	}
	last := &q.head
	m := q.more
	if m != nil && m.n > 0 {
		last = &m.ring[(m.start+m.n-1)&(len(m.ring)-1)]
	}
	if last.arrived > t {
		panic(fmt.Sprintf("queue: Push tick %d before last %d", t, last.arrived))
	}
	if last.arrived == t {
		last.bits += bits // bits of one tick share their delays
		if last != &q.head {
			m.rest += bits
		}
		return
	}
	q.behind().append(chunk{arrived: t, bits: bits})
}

// behind returns the side struct, allocating it on first need.
func (q *FIFO) behind() *backlog {
	if q.more == nil {
		q.more = &backlog{}
	}
	return q.more
}

// append queues c at the back of the ring, doubling a full ring.
func (m *backlog) append(c chunk) {
	if m.n == len(m.ring) {
		grown := make([]chunk, max(2, 2*len(m.ring)))
		k := copy(grown, m.ring[m.start:])
		copy(grown[k:], m.ring[:m.start])
		m.ring, m.start = grown, 0
	}
	m.ring[(m.start+m.n)&(len(m.ring)-1)] = c
	m.n++
	m.rest += c.bits
}

// Serve removes up to rate bits at tick t in FIFO order and returns the
// number served. Delay of a bit served at tick t is t minus its arrival
// tick (a bit served in its arrival tick has delay 0).
func (q *FIFO) Serve(t bw.Tick, rate bw.Rate) bw.Bits {
	if rate < 0 {
		panic(fmt.Sprintf("queue: Serve negative rate %d", rate))
	}
	budget := min(rate, q.Bits())
	servedNow := budget
	for budget > 0 {
		took := min(budget, q.head.bits)
		q.head.bits -= took
		budget -= took
		q.recordServed(t-q.head.arrived, took)
		if q.head.bits == 0 {
			q.advance()
		}
	}
	q.served += servedNow
	return servedNow
}

// ServeSpan serves the queue at rate on every tick from from through
// through, in FIFO order, and returns the number of bits served: the
// queue, its counters and an attached histogram end exactly as
// through-from+1 calls Serve(from, rate), ..., Serve(through, rate)
// leave them. Nothing arrives within the span. It costs a step per
// arrival tick it serves bits of, and while a histogram is attached a
// step per tick of each of those as well, for the histogram's counts.
func (q *FIFO) ServeSpan(from, through bw.Tick, rate bw.Rate) bw.Bits {
	if rate < 0 {
		panic(fmt.Sprintf("queue: ServeSpan negative rate %d", rate))
	}
	ticks := through - from + 1
	if ticks == 1 {
		return q.Serve(from, rate)
	}
	total := q.Bits()
	if ticks <= 0 || rate == 0 || total == 0 {
		return 0
	}
	if ticks < bw.CeilDiv(total, rate) {
		total = bw.Volume(rate, ticks)
	}
	// The bit at position p of the span goes out at tick from + p/rate.
	for pos := bw.Bits(0); pos < total; {
		c := q.head
		took := min(total-pos, c.bits)
		// A chunk's last bit served waited longest; the division is
		// needed only when even the span's last tick would raise the max.
		if through-c.arrived > q.maxDelay {
			q.maxDelay = max(q.maxDelay, from+(pos+took-1)/rate-c.arrived)
		}
		if q.more != nil && q.more.hist != nil {
			q.more.hist.recordSpan(from-c.arrived, pos, took, rate)
		}
		q.head.bits -= took
		pos += took
		if q.head.bits == 0 {
			q.advance()
		}
	}
	q.served += total
	return total
}

// advance replaces the drained head with the next chunk, if any.
func (q *FIFO) advance() {
	m := q.more
	if m == nil || m.n == 0 {
		return
	}
	q.head = m.ring[m.start]
	m.rest -= q.head.bits
	m.start = (m.start + 1) & (len(m.ring) - 1)
	m.n--
	if m.n == 0 {
		m.start = 0
	}
}

func (q *FIFO) recordServed(delay bw.Tick, bits bw.Bits) {
	if delay > q.maxDelay {
		q.maxDelay = delay
	}
	if q.more != nil && q.more.hist != nil {
		q.more.hist.record(delay, bits)
	}
}

// Reset empties the queue and zeroes its counters while keeping the
// chunk storage and any attached histogram (which its owner resets), so
// a queue reused across simulation runs reaches a steady state of zero
// allocations per run.
func (q *FIFO) Reset() {
	q.head = chunk{}
	q.maxDelay = 0
	q.served = 0
	if q.more != nil {
		q.more.start, q.more.n, q.more.rest = 0, 0, 0
	}
}

// Bits returns the number of bits currently queued.
func (q *FIFO) Bits() bw.Bits {
	if q.more == nil {
		return q.head.bits
	}
	return q.head.bits + q.more.rest
}

// Empty reports whether the queue holds no bits: one word, the head's.
func (q *FIFO) Empty() bool { return q.head.bits == 0 }

// MaxDelay returns the largest delay of any bit served so far.
func (q *FIFO) MaxDelay() bw.Tick { return q.maxDelay }

// Oldest returns the arrival tick of the oldest queued bit, and false
// when the queue is empty.
func (q *FIFO) Oldest() (bw.Tick, bool) { return q.head.arrived, q.head.bits > 0 }

// Served returns the total number of bits served so far.
func (q *FIFO) Served() bw.Bits { return q.served }
