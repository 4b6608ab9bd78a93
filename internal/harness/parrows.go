package harness

import (
	"runtime"
	"sync"
)

// parConfig is the process-wide sweep parallelism setting, written by
// bwmulti's -j flag (and tests) and read by every ParRows call.
type parConfig struct {
	mu sync.Mutex
	// n is the configured worker count; 0 means "use GOMAXPROCS".
	n int // guarded by mu
}

var parCfg parConfig

// SetParallelism fixes the number of worker goroutines ParRows fans
// sweep points across. n < 1 restores the default (GOMAXPROCS).
func SetParallelism(n int) {
	parCfg.mu.Lock()
	defer parCfg.mu.Unlock()
	if n < 1 {
		n = 0
	}
	parCfg.n = n
}

// Parallelism returns the worker count ParRows will use.
func Parallelism() int {
	parCfg.mu.Lock()
	defer parCfg.mu.Unlock()
	if parCfg.n > 0 {
		return parCfg.n
	}
	return runtime.GOMAXPROCS(0)
}

// dispenser hands out sweep-point indices to workers, one at a time, so
// slow points do not stall the remaining work behind a fixed slicing.
type dispenser struct {
	mu sync.Mutex
	// next is the next undispatched point index. guarded by mu
	next  int
	limit int
}

// take returns the next point index, or false when the sweep is drained.
func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.next >= d.limit {
		return 0, false
	}
	i := d.next
	d.next++
	return i, true
}

// ParRows evaluates n independent sweep points and appends each point's
// rows to t in point order, fanning the points across Parallelism()
// worker goroutines. The output — row order and bytes — is identical for
// every worker count; on failure the returned error is the one from the
// lowest-indexed failing point, again regardless of scheduling.
//
// point(i) must be self-contained: it may only read shared state that is
// immutable for the duration of the sweep (traces with precomputed
// prefix sums qualify; see DESIGN.md §8) and must construct its own
// allocators, runners, and RNGs. It is called at most once per index.
func ParRows(t *Table, n int, point func(i int) ([][]string, error)) error {
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	rows := make([][][]string, n)
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if rows[i], errs[i] = point(i); errs[i] != nil {
				return errs[i]
			}
		}
	} else {
		d := dispenser{limit: n}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i, ok := d.take()
					if !ok {
						return
					}
					rows[i], errs[i] = point(i)
				}
			}()
		}
		wg.Wait()
	}
	for i := 0; i < n; i++ {
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
