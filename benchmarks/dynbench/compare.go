package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is BENCHMARK.json: the metric names dynbench emits with the
// direction and regression bound the benchmark fixes for each.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// across reduces one workload's metric over a report's sets: the median
// of the sets' values, and as spread the interquartile range across
// sets — or, with a single set, that set's spread over slices. ok is
// false when no set measured it.
func across(sets [][]Result, workload, metric string) (value, spread float64, ok bool) {
	var values []float64
	var one Metric
	for _, set := range sets {
		for _, r := range set {
			if m, has := r.Metrics[metric]; has && r.Workload == workload {
				values = append(values, m.Value)
				one = m
			}
		}
	}
	switch len(values) {
	case 0:
		return 0, 0, false
	case 1:
		return one.Value, one.Spread, true
	}
	return median(values), iqrShare(values), true
}

// worstFailRatio is the workload's highest fail_ratio over the sets.
func worstFailRatio(sets [][]Result, workload string) float64 {
	var worst float64
	for _, set := range sets {
		for _, r := range set {
			if f := r.FailRatio(); r.Workload == workload && f > worst {
				worst = f
			}
		}
	}
	return worst
}

// worseBy is how much worse head reads than base, as a share of base, in
// the metric's own direction; negative means better.
func worseBy(base, head float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (head - base) / base
	if better == "higher" {
		d = -d
	}
	return d
}

const (
	verdictNoBound    = "(no bound)"
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
	verdictNotApplied = "n/a"
)

// verdict applies a bound to one pairing. A spread wider than the bound
// on either side cannot resolve a change of the bound's size, so the
// pairing is unresolved, not unchanged.
func verdict(worse, baseSpread, headSpread, bound float64) string {
	switch {
	case bound == 0:
		return verdictNoBound
	case baseSpread > bound || headSpread > bound:
		return verdictUnresolved
	case worse > bound:
		return verdictRegression
	case worse < -bound:
		return verdictImproved
	}
	return verdictOK
}

// compareReports prints one row per workload and end-to-end metric, the
// informational ones last and without a verdict, and reports whether
// head regressed: a metric worse than its bound, a metric base measured
// and head did not, or a workload failing more operations than before.
// A metric neither side measured does not apply to the workload; its
// row says so and carries no verdict.
func compareReports(w io.Writer, spec benchSpec, base, head Report) (regressed bool) {
	fmt.Fprintf(w, "%-12s %-18s %-6s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "unit", "base", "head", "worse", "spread", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, sm := range withInformational(spec.EndToEnd) {
			b, bs, bok := across(base.Sets, wl.Name, sm.Name)
			h, hs, hok := across(head.Sets, wl.Name, sm.Name)
			if !bok || !hok {
				v := verdictNotApplied
				if bok != hok {
					v = verdictMissing
				}
				fmt.Fprintf(w, "%-12s %-18s %-6s %14s %14s %8s %7s %7s %5.0f%%  %s\n",
					wl.Name, sm.Name, sm.Unit, "-", "-", "-", "-", "-", 100*sm.Bound, v)
				regressed = regressed || (bok && !hok)
				continue
			}
			worse := worseBy(b, h, sm.Better)
			v := verdict(worse, bs, hs, sm.Bound)
			regressed = regressed || v == verdictRegression
			fmt.Fprintf(w, "%-12s %-18s %-6s %14s %14s %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, sm.Name, sm.Unit, formatValue(b), formatValue(h), 100*worse, 100*bs, 100*hs, 100*sm.Bound, v)
		}
		bf, hf := worstFailRatio(base.Sets, wl.Name), worstFailRatio(head.Sets, wl.Name)
		v := verdictOK
		if hf > bf {
			v, regressed = verdictRegression, true
		}
		fmt.Fprintf(w, "%-12s %-18s %-6s %14.6g %14.6g %8s %7s %7s %6s  %s\n",
			wl.Name, "fail_ratio", "ratio", bf, hf, "", "", "", "0", v)
	}
	return regressed
}

// spreadExempt is the one metric held to its median and not to its
// spread, here as by the benchmark's driver: a run sets up two to nine
// times, too few for the spread of set-up time to say anything.
const spreadExempt = "setup_s"

// writeSetSpread prints, for a report of several sets, every end-to-end
// metric's median across the sets with its spread against the bound, and
// reports whether a spread exceeded its bound: how the bounds in
// BENCHMARK.json are calibrated, how same code against itself is shown
// to repeat within them, and how to tell when an informational metric
// has become steady enough to be given one.
func writeSetSpread(w io.Writer, spec benchSpec, r Report) (exceeded bool) {
	fmt.Fprintf(w, "\nspread across %d sets (interquartile range as a share of the median)\n", len(r.Sets))
	fmt.Fprintf(w, "%-12s %-18s %-6s %14s %7s %6s  %s\n", "workload", "metric", "unit", "median", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, sm := range withInformational(spec.EndToEnd) {
			v, s, ok := across(r.Sets, wl.Name, sm.Name)
			if !ok {
				continue
			}
			verdict := "within"
			switch {
			case sm.Bound == 0:
				verdict = verdictNoBound
			case s > sm.Bound && sm.Name == spreadExempt:
				verdict = "exceeds (exempt)"
			case s > sm.Bound:
				verdict, exceeded = "EXCEEDS", true
			}
			fmt.Fprintf(w, "%-12s %-18s %-6s %14s %6.1f%% %5.0f%%  %s\n",
				wl.Name, sm.Name, sm.Unit, formatValue(v), 100*s, 100*sm.Bound, verdict)
		}
	}
	return exceeded
}

// withInformational appends the unbounded metrics to the bounded ones.
func withInformational(bounded []specMetric) []specMetric {
	return append(append([]specMetric(nil), bounded...), informational...)
}
