// Command bwmulti runs a multi-session dynamic bandwidth allocation
// simulation (Sections 3 and 4 of the paper): k sessions sharing a
// channel under the phased, continuous, or combined algorithm, on either
// a planted workload (known offline change count) or a multi-session CSV
// trace (tick,session,bits).
//
// -policy takes a comma-separated list; each policy gets its own
// simulation and report section, fanned across -j worker goroutines
// through the same harness.ParRows machinery as the experiment sweeps,
// so the output bytes are identical for every -j value.
//
// Usage examples:
//
//	bwmulti -policy phased -k 8
//	bwmulti -policy combined -k 4 -ba 512 -uo 0.25
//	bwmulti -policy continuous -trace sessions.csv -bo 64
//	bwmulti -policy phased,continuous,combined -k 8 -j 3
//
// bwlint:deterministic
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/harness"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
	"dynbw/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwmulti:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwmulti", flag.ContinueOnError)
	var (
		policy    = fs.String("policy", "phased", "comma-separated list of phased|continuous|combined")
		k         = fs.Int("k", 4, "number of sessions (ignored with -trace)")
		bo        = fs.Int64("bo", 0, "offline total bandwidth B_O (default 16*k)")
		do        = fs.Int64("do", 8, "offline delay bound D_O")
		ba        = fs.Int64("ba", 256, "total bandwidth cap B_A (combined only, power of two)")
		uo        = fs.Float64("uo", 0.5, "offline utilization U_O (combined only)")
		w         = fs.Int64("w", 16, "utilization window W (combined only)")
		seed      = fs.Uint64("seed", 1, "planted workload seed")
		phases    = fs.Int("phases", 16, "planted workload phases")
		phaseLen  = fs.Int64("phaselen", 64, "planted workload phase length")
		traceFile = fs.String("trace", "", "multi-session CSV trace instead of a planted workload")
		workers   = fs.Int("j", 0, "worker goroutines across -policy runs (0 = GOMAXPROCS); output is identical for every value")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bo == 0 {
		*bo = int64(16 * *k)
	}
	harness.SetParallelism(*workers)

	policies := strings.Split(*policy, ",")
	for i, name := range policies {
		policies[i] = strings.TrimSpace(name)
	}

	// A CSV trace is read once and shared: trace.Multi is immutable
	// during simulation, so concurrent policy runs may replay it. The
	// planted workload instead depends on the policy (combined wants
	// global levels), so each sweep point builds its own.
	var shared *trace.Multi
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		m, err := trace.ReadMultiCSV(f)
		if err != nil {
			return fmt.Errorf("parse %s: %w", *traceFile, err)
		}
		shared = m
		*k = m.K()
	}

	// Each point renders its whole report section; ParRows keeps the
	// sections in -policy order whatever the worker count.
	t := &harness.Table{ID: "bwmulti", Headers: []string{"section"}}
	err := harness.ParRows(t, len(policies), func(i int) ([][]string, error) {
		name := policies[i]
		multi := shared
		offlineChanges := 0
		if multi == nil {
			pl, err := traffic.NewPlanted(traffic.PlantedParams{
				Seed: *seed, K: *k, BO: *bo, DO: *do,
				Phases: *phases, PhaseLen: *phaseLen, ShufflesPerPhase: 2, Fill: 0.8,
				GlobalLevels: name == "combined",
			})
			if err != nil {
				return nil, err
			}
			multi = pl.Multi
			offlineChanges = pl.LocalChanges()
		}
		alloc, bwBound, err := multiPolicy(name, *k, *bo, *do, *ba, *uo, *w)
		if err != nil {
			return nil, err
		}
		res, err := sim.RunMulti(multi, alloc, sim.Options{})
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		report(&sb, name, *k, *do, bwBound, multi, res, offlineChanges)
		return [][]string{{sb.String()}}, nil
	})
	if err != nil {
		return err
	}
	for i, row := range t.Rows {
		if i > 0 {
			fmt.Fprintln(out)
		}
		io.WriteString(out, row[0])
	}
	return nil
}

// report renders one policy's result section.
func report(out io.Writer, policy string, k int, do int64, bwBound bw.Rate, multi *trace.Multi, res *sim.MultiResult, offlineChanges int) {
	fmt.Fprintf(out, "policy:            %s\n", policy)
	fmt.Fprintf(out, "sessions:          %d over %d ticks\n", k, multi.Len())
	fmt.Fprintf(out, "arrived bits:      %d\n", res.Report.TotalArrivals)
	fmt.Fprintf(out, "session changes:   %d", res.SessionChanges())
	if offlineChanges > 0 {
		fmt.Fprintf(out, " (%.2fx the planted offline's %d, bound %dx)",
			float64(res.SessionChanges())/float64(offlineChanges), offlineChanges, 3*k)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "total-bw changes:  %d\n", res.TotalChanges())
	fmt.Fprintf(out, "peak total bw:     %d (bound ~%d)\n", res.MaxTotalRate(), bwBound)
	fmt.Fprintf(out, "max delay:         %d (guarantee %d)\n", res.Delay.Max, 2*do)
	fmt.Fprintf(out, "global util:       %.3f\n", res.Report.GlobalUtil)
	for i, d := range res.SessionDelays {
		fmt.Fprintf(out, "  session %2d: max delay %d, changes %d\n",
			i, d, res.Sessions[i].Changes())
	}
}

func multiPolicy(name string, k int, bo, do, ba int64, uo float64, w int64) (sim.MultiAllocator, bw.Rate, error) {
	switch name {
	case "phased":
		a, err := core.NewPhased(core.MultiParams{K: k, BO: bo, DO: do})
		return a, 4*bo + int64(k), err
	case "continuous":
		a, err := core.NewContinuous(core.MultiParams{K: k, BO: bo, DO: do})
		return a, 5*bo + int64(k), err
	case "combined":
		a, err := core.NewCombined(core.CombinedParams{K: k, BA: ba, DO: do, UO: uo, W: w})
		return a, 7*(ba/8) + int64(k), err
	default:
		return nil, 0, fmt.Errorf("unknown policy %q", name)
	}
}
