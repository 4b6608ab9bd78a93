// Package queue implements the FIFO fluid queue Q of the paper: bits that
// have arrived at the sending end but have not yet been transmitted. The
// queue tracks the arrival tick of every bit so that per-bit delay — the
// paper's latency metric — can be measured exactly.
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
type FIFO struct {
	chunks []chunk
	head   int
	bits   bw.Bits

	// maxDelay is the largest delay of any bit served so far.
	maxDelay bw.Tick
	// served is the total number of bits served.
	served bw.Bits
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
	if n := len(q.chunks); n > q.head && q.chunks[n-1].arrived > t {
		panic(fmt.Sprintf("queue: Push tick %d before last %d", t, q.chunks[n-1].arrived))
	}
	q.chunks = append(q.chunks, chunk{arrived: t, bits: bits})
	q.bits += bits
	q.compact()
}

// Serve removes up to rate bits at tick t in FIFO order and returns the
// number served. Delay of a bit served at tick t is t minus its arrival
// tick (a bit served in its arrival tick has delay 0).
func (q *FIFO) Serve(t bw.Tick, rate bw.Rate) bw.Bits {
	if rate < 0 {
		panic(fmt.Sprintf("queue: Serve negative rate %d", rate))
	}
	budget := bw.Min(rate, q.bits)
	servedNow := budget
	for budget > 0 {
		c := &q.chunks[q.head]
		took := bw.Min(budget, c.bits)
		c.bits -= took
		budget -= took
		q.recordServed(t-c.arrived, took)
		if c.bits == 0 {
			q.head++
		}
	}
	q.bits -= servedNow
	q.served += servedNow
	return servedNow
}

func (q *FIFO) recordServed(delay bw.Tick, bits bw.Bits) {
	if delay > q.maxDelay {
		q.maxDelay = delay
	}
	if q.hist != nil {
		q.hist.record(delay, bits)
	}
}

// compact drops fully-served chunks from the front once they dominate the
// slice, keeping Push/Serve amortized O(1).
func (q *FIFO) compact() {
	if q.head > 64 && q.head*2 >= len(q.chunks) {
		n := copy(q.chunks, q.chunks[q.head:])
		q.chunks = q.chunks[:n]
		q.head = 0
	}
}

// Reset empties the queue and zeroes its counters while keeping the
// chunk storage and any attached histogram (which its owner resets), so
// a queue reused across simulation runs reaches a steady state of zero
// allocations per run.
func (q *FIFO) Reset() {
	q.chunks = q.chunks[:0]
	q.head = 0
	q.bits = 0
	q.maxDelay = 0
	q.served = 0
}

// Bits returns the number of bits currently queued.
func (q *FIFO) Bits() bw.Bits { return q.bits }

// MaxDelay returns the largest delay of any bit served so far.
func (q *FIFO) MaxDelay() bw.Tick { return q.maxDelay }

// Served returns the total number of bits served so far.
func (q *FIFO) Served() bw.Bits { return q.served }
