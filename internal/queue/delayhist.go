package queue

import "dynbw/internal/bw"

const (
	histCap = 4096
	// histMin is the first allocation size of a DelayHist; doubled until
	// the observed delay fits, up to histCap.
	histMin = 64
)

// DelayHist is a per-bit delay histogram: the analysis state behind the
// simulator's P50/P99 columns, kept apart from the FIFO so a queue that
// nobody asks for quantiles carries none. Attach it to the FIFO whose
// served bits it should record. The zero value is empty and ready.
type DelayHist struct {
	// counts[d] is the number of bits served with delay d (capped at
	// histCap-1; the last bucket accumulates everything at or beyond it).
	// It grows geometrically with the largest delay observed, so the
	// typical run, whose delays stay within the 2*D_O guarantee, never
	// pays for the full histCap range.
	counts []bw.Bits
	total  bw.Bits
}

// Attach makes q record the delay of every bit it serves into h, until
// another histogram is attached. A histogram may collect from several
// queues.
func (h *DelayHist) Attach(q *FIFO) { q.behind().hist = h }

func (h *DelayHist) record(delay bw.Tick, bits bw.Bits) {
	idx := delay
	if idx >= histCap {
		idx = histCap - 1
	}
	if int(idx) >= len(h.counts) {
		h.grow(idx)
	}
	h.counts[idx] += bits
	h.total += bits
}

// recordSpan records took bits served at rate a tick, the first of them
// the bit at position pos of a span of ticks whose first tick is wait
// ticks after the bits arrived: the bits at positions j·rate to
// (j+1)·rate-1 went out j ticks into the span.
func (h *DelayHist) recordSpan(wait bw.Tick, pos, took bw.Bits, rate bw.Rate) {
	j := pos / rate
	for end, next := pos+took, bw.Volume(rate, j+1); pos < end; j, next = j+1, next+bw.Volume(rate, 1) {
		h.record(wait+j, min(end, next)-pos)
		pos = next
	}
}

// grow extends counts to cover idx, doubling from histMin up to histCap.
// Growth reuses the existing prefix, so counts are preserved.
func (h *DelayHist) grow(idx bw.Tick) {
	n := len(h.counts)
	if n == 0 {
		n = histMin
	}
	for n <= int(idx) {
		n *= 2
	}
	if n > histCap {
		n = histCap
	}
	grown := make([]bw.Bits, n)
	copy(grown, h.counts)
	h.counts = grown
}

// Reset zeroes the histogram while keeping its bucket storage.
func (h *DelayHist) Reset() {
	clear(h.counts)
	h.total = 0
}

// Quantile returns the smallest delay d such that at least fraction p of
// all recorded bits had delay <= d. It returns 0 when nothing was
// recorded.
func (h *DelayHist) Quantile(p float64) bw.Tick {
	if h.total == 0 {
		return 0
	}
	target := bw.Bits(p * float64(h.total))
	if target < 1 {
		target = 1
	}
	var cum bw.Bits
	for d, c := range h.counts {
		cum += c
		if cum >= target {
			return bw.Tick(d)
		}
	}
	return bw.Tick(len(h.counts) - 1)
}
