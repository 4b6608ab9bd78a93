// Command bwsim runs one dynamic bandwidth allocation simulation: a
// workload (built-in generator or a CSV trace) served by a chosen
// allocation policy, reporting changes, delay, and utilization.
//
// Usage examples:
//
//	bwsim -policy single -workload onoff -ticks 2000
//	bwsim -policy pertick -trace demand.csv
//	bwsim -policy modified -workload pareto -ba 512 -do 16 -uo 0.25 -w 32
//
// bwlint:deterministic
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dynbw/internal/baseline"
	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/metrics"
	"dynbw/internal/series"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
	"dynbw/internal/traffic"
	"dynbw/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwsim", flag.ContinueOnError)
	var (
		policy    = fs.String("policy", "single", "single|modified|peak|mean|pertick|periodic|ewma")
		workload  = fs.String("workload", "onoff", "cbr|onoff|pareto|video|spike (ignored with -trace)")
		traceFile = fs.String("trace", "", "CSV trace file (tick,bits) instead of a generator")
		ticks     = fs.Int64("ticks", 2048, "trace length for generated workloads")
		seed      = fs.Uint64("seed", 1, "generator seed")
		ba        = fs.Int64("ba", 256, "maximum bandwidth B_A (power of two)")
		do        = fs.Int64("do", 8, "offline delay bound D_O")
		uo        = fs.Float64("uo", 0.5, "offline utilization bound U_O")
		w         = fs.Int64("w", 16, "utilization window W")
		plot      = fs.Bool("plot", false, "render demand/allocation/queue sparklines")
		seriesOut = fs.String("series", "", "write bucketed demand/allocation/queue series CSV to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := core.SingleParams{BA: *ba, DO: *do, UO: *uo, W: *w}
	if err := p.Validate(); err != nil {
		return err
	}

	tr, err := loadTrace(*traceFile, *workload, *seed, bw.Tick(*ticks), p)
	if err != nil {
		return err
	}

	alloc, err := singlePolicy(*policy, p, tr)
	if err != nil {
		return err
	}
	res, err := sim.Run(tr, alloc, sim.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "policy:          %s\n", *policy)
	fmt.Fprintf(out, "ticks:           %d (trace %d)\n", res.Schedule.Len(), tr.Len())
	fmt.Fprintf(out, "arrived bits:    %d\n", res.Report.TotalArrivals)
	fmt.Fprintf(out, "allocated bits:  %d\n", res.Report.TotalAllocated)
	fmt.Fprintf(out, "changes:         %d\n", res.Report.Changes)
	fmt.Fprintf(out, "max rate:        %d\n", res.Report.MaxRate)
	fmt.Fprintf(out, "max delay:       %d (guarantee for paper policies: %d)\n", res.Delay.Max, p.DA())
	fmt.Fprintf(out, "p50/p99 delay:   %d / %d\n", res.Delay.P50, res.Delay.P99)
	fmt.Fprintf(out, "global util:     %.3f\n", res.Report.GlobalUtil)
	flex := metrics.FlexibleUtilizationMin(tr, res.Schedule, 1, p.W+5*p.DO)
	fmt.Fprintf(out, "flex-window util:%.3f (guarantee for paper policies: %.3f)\n", flex, p.UA())

	if *plot || *seriesOut != "" {
		bucket := res.Schedule.Len() / 256
		if bucket < 1 {
			bucket = 1
		}
		demand := series.Demand(tr, bucket)
		alloc := series.Allocation(res.Schedule, bucket)
		occupancy := series.QueueOccupancy(tr, res.Schedule, bucket)
		if *plot {
			const width = 72
			d, a := series.Values(demand), series.Values(alloc)
			top := viz.Max(d, a)
			fmt.Fprintln(out)
			fmt.Fprintln(out, viz.Chart("demand", d, width, top))
			fmt.Fprintln(out, viz.Chart("allocation", a, width, top))
			fmt.Fprintln(out, viz.Chart("queue", series.Values(occupancy), width, 0))
		}
		if *seriesOut != "" {
			f, err := os.Create(*seriesOut)
			if err != nil {
				return err
			}
			defer f.Close()
			// Pad demand to the schedule length (the run may extend past
			// the trace while draining).
			if err := series.WriteCSV(f, []string{"demand", "allocation", "queue"},
				padTo(demand, len(alloc)), alloc, occupancy); err != nil {
				return err
			}
		}
	}
	return nil
}

// padTo extends pts with zero-valued points so aligned CSV columns match.
func padTo(pts []series.Point, n int) []series.Point {
	for len(pts) < n {
		last := pts[len(pts)-1]
		pts = append(pts, series.Point{T: last.T + 1, V: 0})
	}
	return pts
}

func loadTrace(traceFile, workload string, seed uint64, n bw.Tick, p core.SingleParams) (*trace.Trace, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := trace.ReadCSV(f)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", traceFile, err)
		}
		return traffic.ClampTrace(tr, p.BA, p.DO), nil
	}
	g, err := makeGenerator(workload, seed, p)
	if err != nil {
		return nil, err
	}
	return traffic.ClampTrace(g.Generate(n), p.BA, p.DO), nil
}

func makeGenerator(name string, seed uint64, p core.SingleParams) (traffic.Generator, error) {
	switch name {
	case "cbr":
		return traffic.CBR{Rate: p.BA / 4}, nil
	case "onoff":
		return traffic.OnOff{Seed: seed, PeakRate: p.BA / 2, MeanOn: 12, MeanOff: 20}, nil
	case "pareto":
		return traffic.ParetoBurst{Seed: seed, Alpha: 1.5, MinBurst: int64(p.BA), MeanGap: 16, SpreadTicks: 2}, nil
	case "video":
		return traffic.VBRVideo{
			Seed: seed, FrameInterval: 2,
			IBits: int64(p.BA / 2), PBits: int64(p.BA / 5), BBits: int64(p.BA / 16),
			Jitter: 0.2, SceneChangeProb: 0.05,
		}, nil
	case "spike":
		return traffic.Spike{Seed: seed, Base: p.BA / 32, SpikeBits: int64(p.BA / 2), SpikeProb: 0.03}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

func singlePolicy(name string, p core.SingleParams, tr *trace.Trace) (sim.Allocator, error) {
	switch name {
	case "single":
		return core.NewSingleSession(p)
	case "modified":
		return core.NewModifiedSingle(p)
	case "peak":
		return baseline.Static{R: tr.Peak()}, nil
	case "mean":
		return baseline.Static{R: tr.MeanCeil()}, nil
	case "pertick":
		return &baseline.PerTick{D: p.DO}, nil
	case "periodic":
		return &baseline.Periodic{Period: p.W, D: p.DO}, nil
	case "ewma":
		return baseline.NewEWMA(0.15, 2, 1.5, p.DO)
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
