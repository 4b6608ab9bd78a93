package main

import (
	"context"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for dynbench when a workload
// re-executes it with -serve, so the smoke test spawns a real child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode holds BENCHMARK.json and the tables in the code
// together: the code's gated workloads, same metric names and units,
// same order.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	var gated []workload
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d gated ones", len(spec.Workloads), len(gated))
	}
	for i, w := range gated {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, list := range []struct {
		what string
		spec []specMetric
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(list.spec) != len(list.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", list.what, len(list.spec), len(list.code))
		}
		for i, d := range list.code {
			if got := list.spec[i]; got.Name != d.name || got.Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", list.what, i, got.Name, got.Unit, d.name, d.unit)
			}
		}
	}
}

// TestSmoke spawns the child and runs a 64-slot, 200 ms version of every
// workload, both passes, and the layers section: every check passes, and
// every metric of BENCHMARK.json, and the informational two, is reported
// exactly once, under its unit, by each workload that measures it, by
// the layers section otherwise, and by nothing else. End-to-end metrics
// must not read 0.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	o := runOpts{seed: 1, seconds: 0.2, slots: 64, trace: true}
	layers, spans, err := layersSection(o)
	if err != nil {
		t.Fatal(err)
	}
	if !layers.Correct() || len(spans.Totals) == 0 {
		t.Errorf("layers section: attempted %d, failed %d, %d span names", layers.Attempted, layers.Failed, len(spans.Totals))
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o.trace = traced
				res, spans, err := runPass(context.Background(), w, o)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct() {
					t.Errorf("traced=%v: %d of %d operations failed: %v", traced, res.Failed, res.Attempted, res.Failures)
				}
				want := withInformational(spec.EndToEnd)
				if traced {
					want = spec.PerLayer
					setSelfTime(w, &res, layers)
					if len(spans.Tracers) == 0 || len(spans.Totals) == 0 {
						t.Errorf("traced pass recorded no spans")
					}
				}
				reported := 0
				for _, sm := range want {
					m, here := res.Metrics[sm.Name]
					_, there := layers.Metrics[sm.Name]
					switch {
					case traced && here == there && (there || w.measures(sm.Name)):
						t.Errorf("%s: reported by the workload: %v, by the layers section: %v", sm.Name, here, there)
					case here != w.measures(sm.Name):
						t.Errorf("traced=%v: %s reported: %v, measured by %s: %v", traced, sm.Name, here, w.name, w.measures(sm.Name))
					case !here:
						continue
					case m.Unit != sm.Unit:
						t.Errorf("traced=%v: %s in %q, want %q", traced, sm.Name, m.Unit, sm.Unit)
					case !traced && m.Value <= 0:
						t.Errorf("%s = %v, want > 0", sm.Name, m.Value)
					}
					reported++
				}
				if len(res.Metrics) != reported {
					t.Errorf("traced=%v: %d metrics reported, %d of them expected", traced, len(res.Metrics), reported)
				}
				if _, err := contractLine(w, res, layers); err != nil {
					t.Errorf("traced=%v: %v", traced, err)
				}
			}
		})
	}
}
