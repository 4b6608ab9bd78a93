package sim

import (
	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/trace"
)

// MultiAllocator is a bandwidth allocation policy for k sessions sharing a
// channel (Section 3 of the paper). Rates is called once per tick, after
// arrivals have been enqueued, and returns the per-session allocations.
// The kernel runs one that is also a SparseAllocator, and rejects others.
type MultiAllocator interface {
	// Rates returns the per-session allocations at tick t. arrived[i] and
	// queued[i] describe session i. The returned slice must have length k
	// and non-negative entries.
	//
	// The slice may be one the allocator retains and rewrites on its next
	// call, as the paper's policies do to keep a round free of garbage: it
	// is valid until the next call, must not be written, and a caller
	// that wants a tick's rates later copies them.
	Rates(t bw.Tick, arrived, queued []bw.Bits) []bw.Rate
}

// MultiResult is the outcome of a multi-session run.
type MultiResult struct {
	// Sessions holds the per-session schedules.
	Sessions []*bw.Schedule
	// Total is the aggregate allocation schedule (sum over sessions).
	Total *bw.Schedule
	// Delay summarizes per-bit delays across all sessions.
	Delay metrics.DelayStats
	// SessionDelays holds the per-session maximum delay.
	SessionDelays []bw.Tick
	// Report aggregates metrics against the aggregate arrival stream.
	Report metrics.Report
	// Dropped is the number of bits lost to the finite buffers (zero
	// unless Options.QueueCap is set).
	Dropped bw.Bits
	// PeakQueue is the largest queue length any session reached.
	PeakQueue bw.Bits
}

// SessionChanges returns the total number of allocation changes summed over
// the per-session schedules — the cost measure of Theorems 14 and 17.
func (r *MultiResult) SessionChanges() int {
	total := 0
	for _, s := range r.Sessions {
		total += s.Changes()
	}
	return total
}

// TotalChanges returns the number of changes of the aggregate (total
// bandwidth) schedule — the "global changes" of Section 4.
func (r *MultiResult) TotalChanges() int { return r.Total.Changes() }

// MaxTotalRate returns the peak aggregate allocation, for checking the
// B_A = 4*B_O / 5*B_O resource bounds.
func (r *MultiResult) MaxTotalRate() bw.Rate { return r.Total.MaxRate() }

// RunMulti simulates the allocator on k parallel sessions.
//
// RunMulti is a thin wrapper over a throwaway MultiRunner; hot paths
// that simulate repeatedly should hold a MultiRunner and reuse it.
func RunMulti(m *trace.Multi, alloc MultiAllocator, opts Options) (*MultiResult, error) {
	return new(MultiRunner).Run(m, alloc, opts)
}
