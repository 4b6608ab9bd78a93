package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parCfg is the process-wide sweep parallelism setting, written by
// bwmulti's -j flag (and tests) and read by every ParRows call: the
// configured worker count, 0 meaning "use GOMAXPROCS".
var parCfg atomic.Int64

// SetParallelism fixes the number of worker goroutines ParRows fans
// sweep points across. n < 1 restores the default (GOMAXPROCS).
func SetParallelism(n int) { parCfg.Store(int64(max(n, 0))) }

// Parallelism returns the worker count ParRows will use.
func Parallelism() int {
	if n := parCfg.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// ParRows evaluates n independent sweep points and appends each point's
// rows to t in point order, fanning the points across Parallelism()
// worker goroutines. Each worker takes the next undispatched index in
// turn, so slow points do not stall the rest behind a fixed slicing. The
// output — row order and bytes — is identical for every worker count; on
// failure the returned error is the one from the lowest-indexed failing
// point, again regardless of scheduling.
//
// point(i) must be self-contained: it may only read shared state that is
// immutable for the duration of the sweep (traces with precomputed
// prefix sums qualify; see DESIGN.md §8) and must construct its own
// allocators, runners, and RNGs. It is called exactly once per index.
func ParRows(t *Table, n int, point func(i int) ([][]string, error)) error {
	rows := make([][][]string, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(Parallelism(), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				rows[i], errs[i] = point(i)
			}
		}()
	}
	wg.Wait()
	for i := range n {
		if errs[i] != nil {
			return errs[i]
		}
	}
	for _, rs := range rows {
		for _, r := range rs {
			t.AddRow(r...)
		}
	}
	return nil
}
