package core_test

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
)

// ExampleNewSingleSession runs the paper's Figure 3 algorithm on a tiny
// hand-written demand pattern and prints the quality metrics the paper
// trades off.
func ExampleNewSingleSession() {
	params := core.SingleParams{BA: 64, DO: 4, UO: 0.5, W: 8}
	alloc, err := core.NewSingleSession(params)
	if err != nil {
		fmt.Println(err)
		return
	}
	demand := trace.MustNew([]bw.Bits{
		0, 30, 0, 0, 12, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0,
	})
	res, err := sim.Run(demand, alloc, sim.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("changes=%d maxDelay=%d (bound %d)\n",
		res.Report.Changes, res.Delay.Max, alloc.Promise().DA)
	// Output:
	// changes=2 maxDelay=3 (bound 8)
}

// ExampleNewPhased divides a shared pool among three sessions with the
// Figure 4 algorithm.
func ExampleNewPhased() {
	params := core.MultiParams{K: 3, BO: 24, DO: 4}
	alloc, err := core.NewPhased(params)
	if err != nil {
		fmt.Println(err)
		return
	}
	sessions := trace.MustNewMulti([]*trace.Trace{
		trace.MustNew([]bw.Bits{8, 8, 8, 8, 0, 0, 0, 0}),
		trace.MustNew([]bw.Bits{0, 0, 0, 0, 8, 8, 8, 8}),
		trace.MustNew([]bw.Bits{2, 2, 2, 2, 2, 2, 2, 2}),
	})
	res, err := sim.RunMulti(sessions, alloc, sim.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("served=%d maxDelay=%d (bound %d)\n",
		res.Delay.Served, res.Delay.Max, alloc.Promise().DA)
	// Output:
	// served=80 maxDelay=0 (bound 8)
}
