// Package core implements the paper's online dynamic bandwidth allocation
// algorithms:
//
//   - the single-session stage/RESET algorithm of Section 2 (Figure 3),
//     which is O(log B_A)-competitive in the number of allocation changes
//     (Theorem 6), with its global-utilization and unquantized variants;
//   - the phased and continuous multi-session algorithms of Section 3
//     (Figures 4 and 5, Theorems 14 and 17), which are 3k-competitive;
//   - the combined algorithm of Section 4.
//
// Theorem 7's O(log(1/U_O))-competitive modified algorithm is not
// reproduced: the paper defers it to its full version (DESIGN.md §2,
// deviation 3).
//
// All algorithms are pure online policies: they observe only the arrivals
// delivered tick by tick and their own state, and plug into the simulator
// via the sim.Allocator / sim.MultiAllocator interfaces.
package core

import (
	"errors"
	"fmt"

	"dynbw/internal/bw"
)

// SingleParams parameterizes the single-session algorithms. The paper
// states guarantees in terms of the offline comparator's parameters, so
// that is how configuration works here: the offline adversary serves the
// stream with maximum bandwidth B_O = BA, delay DO and local utilization
// UO over windows of size W; what the online algorithm guarantees in
// return is its Promise, while it makes at most log2(BA) times as many
// changes per offline change (Theorem 6).
type SingleParams struct {
	// BA is the maximum bandwidth the online algorithm may allocate. The
	// paper assumes it is a power of two.
	BA bw.Rate
	// DO is the offline delay bound.
	DO bw.Tick
	// UO is the offline local utilization bound in (0, 1].
	UO float64
	// W is the utilization window size. The paper assumes W >= DO.
	W bw.Tick
}

var (
	// ErrBadParams is wrapped by all parameter validation failures.
	ErrBadParams = errors.New("core: invalid parameters")
)

// must is what the MustNew constructors return: v, or a panic with err.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Validate checks the parameter constraints the paper assumes.
func (p SingleParams) Validate() error {
	switch {
	case p.BA < 1:
		return fmt.Errorf("%w: BA = %d, want >= 1", ErrBadParams, p.BA)
	case !bw.IsPow2(p.BA):
		return fmt.Errorf("%w: BA = %d, want a power of two", ErrBadParams, p.BA)
	case p.DO < 1:
		return fmt.Errorf("%w: DO = %d, want >= 1", ErrBadParams, p.DO)
	case p.UO <= 0 || p.UO > 1:
		return fmt.Errorf("%w: UO = %v, want in (0, 1]", ErrBadParams, p.UO)
	case p.W < p.DO:
		return fmt.Errorf("%w: W = %d < DO = %d", ErrBadParams, p.W, p.DO)
	}
	return nil
}

// LogBA returns log2(BA), the paper's per-stage change bound l_A.
func (p SingleParams) LogBA() int { return bw.Log2Ceil(p.BA) }

// MultiParams parameterizes the multi-session algorithms of Section 3.
// The offline comparator is a (BO, DO)-algorithm: it serves all k sessions
// with total bandwidth BO and per-bit delay at most DO. What the online
// algorithm guarantees in return is its Promise.
type MultiParams struct {
	// K is the number of sessions (k >= 2 in the paper).
	K int
	// BO is the offline total bandwidth.
	BO bw.Rate
	// DO is the offline delay bound.
	DO bw.Tick
}

// Validate checks the multi-session parameter constraints.
func (p MultiParams) Validate() error {
	switch {
	case p.K < 1:
		return fmt.Errorf("%w: K = %d, want >= 1", ErrBadParams, p.K)
	case p.BO < bw.Rate(p.K):
		// Each session's regular share BO/K must be at least one bit per
		// tick for the discrete algorithm to make progress.
		return fmt.Errorf("%w: BO = %d < K = %d", ErrBadParams, p.BO, p.K)
	case p.DO < 1:
		return fmt.Errorf("%w: DO = %d, want >= 1", ErrBadParams, p.DO)
	}
	return nil
}

// Share returns the per-session regular-channel quantum BO/K, rounded up
// so that k shares always cover BO.
func (p MultiParams) Share() bw.Rate { return bw.CeilDiv(p.BO, int64(p.K)) }
