// Command bwmulti runs dynamic bandwidth allocation simulations: k
// sessions over a planted workload (known offline change count), a
// generated one, or a CSV trace, served by each of a list of policies.
//
// A multi-session policy (Sections 3 and 4: phased, continuous, combined)
// shares one channel among the k sessions. A single-session policy
// (Section 2's single and modified, or a baseline) serves each session
// alone; at -k 1 that is the paper's single-session setting. Each policy
// gets its own simulation and report section, fanned across -j workers
// through harness.ParRows, so the output is identical for every -j.
//
// Usage examples:
//
//	bwmulti -policy phased,continuous,combined -k 8 -j 3
//	bwmulti -policy combined -k 4 -ba 512 -uo 0.25
//	bwmulti -policy continuous -trace sessions.csv -bo 64
//	bwmulti -policy single,pertick -k 1 -workload onoff -ticks 2000 -plot
//
// bwlint:deterministic
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dynbw/internal/baseline"
	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/harness"
	"dynbw/internal/metrics"
	"dynbw/internal/series"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
	"dynbw/internal/traffic"
	"dynbw/internal/viz"
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
		policy    = fs.String("policy", "phased", "comma-separated list of phased|continuous|combined (one shared channel) or single|modified|peak|mean|pertick|periodic|ewma (one per session)")
		k         = fs.Int("k", 4, "number of sessions (ignored with -trace)")
		bo        = fs.Int64("bo", 0, "offline total bandwidth B_O (default 16*k)")
		do        = fs.Int64("do", 8, "offline delay bound D_O")
		ba        = fs.Int64("ba", 256, "bandwidth cap B_A, power of two: combined's total, a single-session policy's own")
		uo        = fs.Float64("uo", 0.5, "offline utilization U_O (combined and single-session policies)")
		w         = fs.Int64("w", 16, "utilization window W (combined and single-session policies)")
		workload  = fs.String("workload", "planted", "planted|cbr|onoff|pareto|video|spike (ignored with -trace); a generated session is scaled to B_A and clamped to what B_A serves within D_O")
		ticks     = fs.Int64("ticks", 2048, "generated workload length")
		seed      = fs.Uint64("seed", 1, "workload seed (session i of a generated workload: seed+i)")
		phases    = fs.Int("phases", 16, "planted workload phases")
		phaseLen  = fs.Int64("phaselen", 64, "planted workload phase length")
		traceFile = fs.String("trace", "", "CSV trace instead of a workload: tick,session,bits, or one session's tick,bits (clamped like a generated session)")
		workers   = fs.Int("j", 0, "worker goroutines across -policy runs (0 = GOMAXPROCS); output is identical for every value")
		plot      = fs.Bool("plot", false, "render demand/allocation/queue sparklines of the sessions' total")
		seriesOut = fs.String("series", "", "write the sessions' total demand/allocation/queue series CSV to this file (one -policy only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	harness.SetParallelism(*workers)
	policies := strings.Split(*policy, ",")
	for i, name := range policies {
		policies[i] = strings.TrimSpace(name)
	}
	if *seriesOut != "" && len(policies) > 1 {
		return fmt.Errorf("-series takes one -policy, got %d", len(policies))
	}
	single := core.SingleParams{BA: *ba, DO: *do, UO: *uo, W: *w}
	for _, name := range policies {
		if !sharesChannel(name) {
			if err := single.Validate(); err != nil {
				return err // every single-session policy runs under these
			}
			break
		}
	}

	// A trace is read once and shared: trace.Multi is immutable during
	// simulation, so concurrent policy runs may replay it. A planted
	// workload instead depends on the policy (combined wants global
	// levels), so each sweep point builds its own.
	var shared *trace.Multi
	if *traceFile != "" {
		m, err := readTrace(*traceFile, *ba, *do)
		if err != nil {
			return err
		}
		shared, *k = m, m.K()
	} else if *workload != "planted" {
		sessions := make([]*trace.Trace, max(*k, 0))
		for i := range sessions {
			g, err := generator(*workload, *seed+uint64(i), *ba)
			if err != nil {
				return err
			}
			sessions[i] = traffic.ClampTrace(g.Generate(bw.Tick(*ticks)), *ba, *do)
		}
		shared, _ = trace.NewMulti(sessions) // an error is k < 1, reported below
	}
	if *k < 1 {
		return fmt.Errorf("-k %d: want at least one session", *k)
	}
	if *bo == 0 {
		*bo = int64(16 * *k)
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
			multi, offlineChanges = pl.Multi, pl.LocalChanges()
		}
		pol, err := makePolicy(name, multi, *bo, *do, single)
		if err != nil {
			return nil, err
		}
		res, err := sim.RunMulti(multi, pol.alloc, sim.Options{})
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		report(&sb, name, pol, single, multi, res, offlineChanges)
		if *plot || *seriesOut != "" {
			err = plotTotal(&sb, *plot, *seriesOut, multi.Aggregate(), res.Total)
		}
		return [][]string{{sb.String()}}, err
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

// generator returns a generated session's source, its rates scaled to
// B_A.
func generator(name string, seed uint64, ba int64) (traffic.Generator, error) {
	switch name {
	case "cbr":
		return traffic.CBR{Rate: ba / 4}, nil
	case "onoff":
		return traffic.OnOff{Seed: seed, PeakRate: ba / 2, MeanOn: 12, MeanOff: 20}, nil
	case "pareto":
		return traffic.ParetoBurst{Seed: seed, Alpha: 1.5, MinBurst: ba, MeanGap: 16, SpreadTicks: 2}, nil
	case "video":
		return traffic.VBRVideo{
			Seed: seed, FrameInterval: 2,
			IBits: ba / 2, PBits: ba / 5, BBits: ba / 16,
			Jitter: 0.2, SceneChangeProb: 0.05,
		}, nil
	case "spike":
		return traffic.Spike{Seed: seed, Base: ba / 32, SpikeBits: ba / 2, SpikeProb: 0.03}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

// readTrace reads a CSV trace in either layout, told apart by the field
// count of the first row that is not a header. One session's tick,bits
// trace is clamped to what ba serves within do, as a generated session
// is; a tick,session,bits trace is taken as it is.
func readTrace(path string, ba, do int64) (*trace.Multi, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	single := false
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "tick") {
			single = strings.Count(line, ",") == 1
			break
		}
	}
	var m *trace.Multi
	if single {
		var tr *trace.Trace
		if tr, err = trace.ReadCSV(bytes.NewReader(data)); err == nil {
			m, err = trace.NewMulti([]*trace.Trace{traffic.ClampTrace(tr, ba, do)})
		}
	} else {
		m, err = trace.ReadMultiCSV(bytes.NewReader(data))
	}
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return m, nil
}

// policy is a policy built for one run, with the guarantees it claims.
type policy struct {
	alloc sim.MultiAllocator
	peak  bw.Rate // the bound on total bandwidth; 0 when none is claimed
	paper bool    // one of the paper's: delay within 2*D_O
	util  float64 // each session's flexible-window utilization floor; 0 when none is claimed
}

// sharesChannel reports whether the named policy shares one channel among
// the sessions; any other serves each session alone.
func sharesChannel(name string) bool {
	return name == "phased" || name == "continuous" || name == "combined"
}

func makePolicy(name string, m *trace.Multi, bo, do int64, p core.SingleParams) (policy, error) {
	k := m.K()
	switch name {
	case "phased":
		a, err := core.NewPhased(core.MultiParams{K: k, BO: bo, DO: do})
		return policy{alloc: a, peak: 4*bo + int64(k), paper: true}, err
	case "continuous":
		a, err := core.NewContinuous(core.MultiParams{K: k, BO: bo, DO: do})
		return policy{alloc: a, peak: 5*bo + int64(k), paper: true}, err
	case "combined":
		a, err := core.NewCombined(core.CombinedParams{K: k, BA: p.BA, DO: do, UO: p.UO, W: p.W})
		return policy{alloc: a, peak: 7*(p.BA/8) + int64(k), paper: true}, err
	}
	sep := &sim.Separate{Allocs: make([]sim.Allocator, k)}
	for i := range sep.Allocs {
		var err error
		tr := m.Session(i)
		switch name {
		case "single":
			sep.Allocs[i], err = core.NewSingleSession(p)
		case "modified":
			sep.Allocs[i], err = core.NewModifiedSingle(p)
		case "peak":
			sep.Allocs[i] = baseline.Static{R: tr.Peak()}
		case "mean":
			sep.Allocs[i] = baseline.Static{R: tr.MeanCeil()}
		case "pertick":
			sep.Allocs[i] = &baseline.PerTick{D: p.DO}
		case "periodic":
			sep.Allocs[i] = &baseline.Periodic{Period: p.W, D: p.DO}
		case "ewma":
			sep.Allocs[i], err = baseline.NewEWMA(0.15, 2, 1.5, p.DO)
		default:
			return policy{}, fmt.Errorf("unknown policy %q", name)
		}
		if err != nil {
			return policy{}, err
		}
	}
	if name == "single" || name == "modified" {
		return policy{alloc: sep, peak: bw.Rate(k) * p.BA, paper: true, util: p.UA()}, nil
	}
	return policy{alloc: sep}, nil
}

// report renders one policy's result section.
func report(out io.Writer, name string, pol policy, p core.SingleParams, multi *trace.Multi, res *sim.MultiResult, offlineChanges int) {
	k := multi.K()
	flex := 1.0
	for i := 0; i < k; i++ {
		flex = min(flex, metrics.FlexibleUtilizationMin(multi.Session(i), res.Sessions[i], 1, p.W+5*p.DO))
	}
	fmt.Fprintf(out, "policy:            %s\n", name)
	fmt.Fprintf(out, "sessions:          %d over %d ticks (%d run)\n", k, multi.Len(), res.Total.Len())
	fmt.Fprintf(out, "arrived bits:      %d\n", res.Report.TotalArrivals)
	fmt.Fprintf(out, "allocated bits:    %d\n", res.Report.TotalAllocated)
	fmt.Fprintf(out, "session changes:   %d", res.SessionChanges())
	if offlineChanges > 0 {
		fmt.Fprintf(out, " (%.2fx the planted offline's %d, bound %dx)",
			float64(res.SessionChanges())/float64(offlineChanges), offlineChanges, 3*k)
	}
	fmt.Fprintf(out, "\ntotal-bw changes:  %d\n", res.TotalChanges())
	fmt.Fprintf(out, "peak total bw:     %d%s\n", res.MaxTotalRate(), claim(pol.peak > 0, "bound ~%d", pol.peak))
	fmt.Fprintf(out, "max delay:         %d%s\n", res.Delay.Max, claim(pol.paper, "guarantee %d", p.DA()))
	fmt.Fprintf(out, "p50/p99 delay:     %d / %d\n", res.Delay.P50, res.Delay.P99)
	fmt.Fprintf(out, "global util:       %.3f\n", res.Report.GlobalUtil)
	fmt.Fprintf(out, "flex-window util:  %.3f%s\n", flex, claim(pol.util > 0, "guarantee %.3f", pol.util))
	for i, d := range res.SessionDelays {
		fmt.Fprintf(out, "  session %2d: max delay %d, changes %d\n", i, d, res.Sessions[i].Changes())
	}
}

// claim renders the guarantee beside a measured value, if there is one.
func claim(has bool, format string, arg any) string {
	if !has {
		return ""
	}
	return " (" + fmt.Sprintf(format, arg) + ")"
}

// plotTotal renders the sessions' total demand, allocation and queue. The
// queue is the total allocation serving the total demand: one session's
// own queue, and for k sessions a lower bound on the sum of theirs.
func plotTotal(out io.Writer, plot bool, csvPath string, demandTrace *trace.Trace, alloc *bw.Schedule) error {
	bucket := max(alloc.Len()/256, 1)
	demand := series.Demand(demandTrace, bucket)
	allocation := series.Allocation(alloc, bucket)
	queue := series.QueueOccupancy(demandTrace, alloc, bucket)
	if plot {
		d, a := series.Values(demand), series.Values(allocation)
		top := viz.Max(d, a)
		fmt.Fprintf(out, "\n%s\n%s\n%s\n", viz.Chart("demand", d, 72, top),
			viz.Chart("allocation", a, 72, top), viz.Chart("queue", series.Values(queue), 72, 0))
	}
	if csvPath == "" {
		return nil
	}
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	// Pad demand to the schedule length: the run drains past the trace.
	for len(demand) < len(allocation) {
		demand = append(demand, series.Point{T: demand[len(demand)-1].T + 1})
	}
	return series.WriteCSV(f, []string{"demand", "allocation", "queue"}, demand, allocation, queue)
}
