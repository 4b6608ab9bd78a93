// Command bwtrace generates synthetic arrival traces in the repository's
// CSV interchange format (tick,bits), optionally clamped to a feasibility
// envelope so they can be fed back into bwmulti.
//
// Usage examples:
//
//	bwtrace -workload pareto -ticks 4096 > demand.csv
//	bwtrace -workload video -seed 7 -clamp-b 256 -clamp-d 8 -o demand.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dynbw/internal/bw"
	"dynbw/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bwtrace", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "onoff", "cbr|onoff|pareto|video|spike|square|doubling|composite")
		ticks    = fs.Int64("ticks", 2048, "trace length")
		seed     = fs.Uint64("seed", 1, "generator seed")
		peak     = fs.Int64("peak", 128, "peak rate scale for the generator")
		clampB   = fs.Int64("clamp-b", 0, "clamp to bandwidth B (0 = no clamp)")
		clampD   = fs.Int64("clamp-d", 0, "clamp delay budget D")
		sessions = fs.Int("sessions", 0, "emit a k-session planted workload (tick,session,bits) instead of a single stream")
		outFile  = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var w io.Writer = stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	if *sessions > 0 {
		pl, err := traffic.NewPlanted(traffic.PlantedParams{
			Seed: *seed, K: *sessions, BO: bw.Rate(*peak), DO: 8,
			Phases: int(*ticks / 64), PhaseLen: 64, ShufflesPerPhase: 2, Fill: 0.8,
		})
		if err != nil {
			return err
		}
		if err := pl.Multi.WriteCSV(w); err != nil {
			return fmt.Errorf("write multi trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bwtrace: %d sessions x %d ticks, %d bits total\n",
			pl.Multi.K(), pl.Multi.Len(), pl.Multi.Aggregate().Total())
		return nil
	}

	g, err := makeGenerator(*workload, *seed, *peak)
	if err != nil {
		return err
	}
	tr := g.Generate(bw.Tick(*ticks))
	if *clampB > 0 {
		tr = traffic.ClampTrace(tr, *clampB, *clampD)
	}
	if err := tr.WriteCSV(w); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bwtrace: %d ticks, %d bits total, peak %d\n",
		tr.Len(), tr.Total(), tr.Peak())
	return nil
}

func makeGenerator(name string, seed uint64, peak int64) (traffic.Generator, error) {
	switch name {
	case "cbr":
		return traffic.CBR{Rate: peak}, nil
	case "onoff":
		return traffic.OnOff{Seed: seed, PeakRate: peak, MeanOn: 12, MeanOff: 20}, nil
	case "pareto":
		return traffic.ParetoBurst{Seed: seed, Alpha: 1.5, MinBurst: peak, MeanGap: 16, SpreadTicks: 2}, nil
	case "video":
		return traffic.VBRVideo{
			Seed: seed, FrameInterval: 2,
			IBits: peak, PBits: peak / 3, BBits: peak / 8,
			Jitter: 0.2, SceneChangeProb: 0.05,
		}, nil
	case "spike":
		return traffic.Spike{Seed: seed, Base: peak / 16, SpikeBits: peak, SpikeProb: 0.03}, nil
	case "square":
		return traffic.SquareWave{LowRate: peak / 8, HighRate: peak, HalfPeriod: 16}, nil
	case "doubling":
		return traffic.DoublingDemand{StartRate: 1, MaxRate: peak, PhaseLen: 16}, nil
	case "composite":
		return traffic.Composite{Parts: []traffic.Generator{
			traffic.OnOff{Seed: seed, PeakRate: peak / 2, MeanOn: 12, MeanOff: 28},
			traffic.ParetoBurst{Seed: seed + 1, Alpha: 1.5, MinBurst: peak, MeanGap: 40, SpreadTicks: 4},
		}}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}
