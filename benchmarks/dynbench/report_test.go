package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) from Python 3.
	tests := []struct {
		name   string
		v      []float64
		q1, q3 float64
	}{
		{"two", []float64{1, 2}, 0.75, 2.25},
		{"three", []float64{1, 2, 4}, 1, 4},
		{"five slices", []float64{10, 20, 30, 40, 50}, 15, 45},
		{"ten runs", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{"unsorted", []float64{9, 1, 5, 3, 7}, 2, 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := sorted(tt.v)
			if q1, q3 := quartile(s, 1), quartile(s, 3); q1 != tt.q1 || q3 != tt.q3 {
				t.Errorf("quartiles of %v = %v, %v; want %v, %v", tt.v, q1, q3, tt.q1, tt.q3)
			}
		})
	}
}

func TestIQRShare(t *testing.T) {
	tests := []struct {
		name string
		v    []float64
		want float64
	}{
		{"empty", nil, 0},
		{"one value", []float64{7}, 0},
		{"constant", []float64{3, 3, 3, 3, 3}, 0},
		{"five slices", []float64{10, 20, 30, 40, 50}, 1},
		{"zero median", []float64{-1, 0, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := iqrShare(tt.v); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("iqrShare(%v) = %v, want %v", tt.v, got, tt.want)
			}
		})
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ns := []int64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, tt := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0, 10}} {
		if got := percentile(ns, tt.p); got != tt.want {
			t.Errorf("percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestUndisturbed(t *testing.T) {
	// phase builds a phase of n slices; slice i reads work i and had
	// stolen(i) clock ticks withheld.
	phase := func(n int, stolen func(i int) int64) []sliceStats {
		s := make([]sliceStats, n)
		for i := range s {
			s[i] = sliceStats{work: float64(i), stolen: stolen(i)}
		}
		return s
	}
	tests := []struct {
		name   string
		slices []sliceStats
		want   int // slices kept
		worst  int64
	}{
		{"quiet box keeps every slice", phase(40, func(int) int64 { return 0 }), 40, 0},
		{"a slow spell is dropped", phase(40, func(i int) int64 { return int64(i / 30 * 7) }), 30, 0},
		{"too few quiet slices: the least disturbed, with ties", phase(40, func(i int) int64 { return int64(i / 5) }), 10, 1},
		{"steal throughout", phase(40, func(i int) int64 { return int64(40 - i) }), minUndisturbed, minUndisturbed},
		{"a short phase keeps what it has", phase(3, func(i int) int64 { return int64(i) }), 3, 2},
		{"nothing measured", nil, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := undisturbed(tt.slices)
			if len(got) != tt.want {
				t.Fatalf("kept %d slices, want %d", len(got), tt.want)
			}
			for _, s := range got {
				if s.stolen > tt.worst {
					t.Errorf("kept a slice with %d ticks stolen, want at most %d", s.stolen, tt.worst)
				}
			}
		})
	}
}

func TestFormatValue(t *testing.T) {
	for _, tt := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {0.98765, "0.9877"}, {85.532, "85.5320"}, {442.91, "442.9"},
		{38950, "38950.0"}, {750976.4, "750976"}, {-1.5, "-1.5000"},
	} {
		if got := formatValue(tt.v); got != tt.want {
			t.Errorf("formatValue(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func sampleResult() Result {
	r := newResult("batch-1k", false)
	r.Attempted, r.Failed = 32176, 0
	r.Metrics["setup_s"] = Metric{Value: 0.0639, Unit: "s", Spread: 0.385, Samples: 5}
	r.Metrics["work_per_s"] = Metric{Value: 750976, Unit: "1/s", Spread: 0.0223, Samples: 27585}
	r.Metrics["op_p50_us"] = Metric{Value: 266.2, Unit: "us", Spread: 0.0229, Samples: 27585}
	r.Metrics["op_p90_us"] = Metric{Value: 442.9, Unit: "us", Spread: 0.0383, Samples: 27585}
	r.Metrics["ticks_kept_ratio"] = Metric{Value: 0.6777, Unit: "ratio", Spread: 0.0232, Samples: 3434}
	r.Metrics["heap_per_slot_b"] = Metric{Value: 1210.7, Unit: "B", Samples: 1}
	return r
}

func TestWriteResultGolden(t *testing.T) {
	failed := sampleResult()
	failed.Failed = 2
	failed.Failures = []string{"batch-1k: sent 10 bits, sessions served 9"}
	tests := []struct {
		name string
		r    Result
		want string
	}{
		{"clean", sampleResult(), `
batch-1k (untraced): attempted 32176, failed 0, fail_ratio 0
  metric                                                  value unit     spread   samples
  setup_s                                                0.0639 s         38.5%         5
  op_p50_us                                               266.2 us         2.3%     27585
  ticks_kept_ratio                                       0.6777 ratio      2.3%      3434
  heap_per_slot_b                                        1210.7 B          0.0%         1
  work_per_s                                             750976 1/s        2.2%     27585  (no bound)
  op_p90_us                                               442.9 us         3.8%     27585  (no bound)
`},
		{"failed check", failed, `
batch-1k (untraced): attempted 32176, failed 2, fail_ratio 6.21581e-05
  FAILED: batch-1k: sent 10 bits, sessions served 9
  metric                                                  value unit     spread   samples
  setup_s                                                0.0639 s         38.5%         5
  op_p50_us                                               266.2 us         2.3%     27585
  ticks_kept_ratio                                       0.6777 ratio      2.3%      3434
  heap_per_slot_b                                        1210.7 B          0.0%         1
  work_per_s                                             750976 1/s        2.2%     27585  (no bound)
  op_p90_us                                               442.9 us         3.8%     27585  (no bound)
`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var b strings.Builder
			writeResult(&b, tt.r)
			if b.String() != tt.want {
				t.Errorf("got:\n%s\nwant:\n%s", b.String(), tt.want)
			}
		})
	}
}

func TestWriteResultLeavesOutWhatWasNotMeasured(t *testing.T) {
	r := sampleResult()
	r.Workload = "sparse-100k"
	delete(r.Metrics, "ticks_kept_ratio")
	var b strings.Builder
	writeResult(&b, r)
	want := `
sparse-100k (untraced): attempted 32176, failed 0, fail_ratio 0
  metric                                                  value unit     spread   samples
  setup_s                                                0.0639 s         38.5%         5
  op_p50_us                                               266.2 us         2.3%     27585
  heap_per_slot_b                                        1210.7 B          0.0%         1
  work_per_s                                             750976 1/s        2.2%     27585  (no bound)
  op_p90_us                                               442.9 us         3.8%     27585  (no bound)
`
	if b.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestContractLineGolden(t *testing.T) {
	batch, _ := findWorkload("batch-1k")
	got, err := contractLine(batch, sampleResult(), Result{})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":32176,"failed":0,"metrics":{` +
		`"heap_per_slot_b":{"value":1210.7,"unit":"B"},` +
		`"op_p50_us":{"value":266.2,"unit":"us"},` +
		`"setup_s":{"value":0.0639,"unit":"s"},` +
		`"ticks_kept_ratio":{"value":0.6777,"unit":"ratio"}}}`
	if got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}

	missing := sampleResult()
	delete(missing.Metrics, "ticks_kept_ratio")
	if _, err := contractLine(batch, missing, Result{}); err == nil {
		t.Error("batch-1k without its ticks_kept_ratio produced a contract line")
	}
	// The driver wants the metric from a workload that cannot measure it
	// too, and accepts no 0.
	sparse, _ := findWorkload("sparse-100k")
	got, err = contractLine(sparse, missing, Result{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, `"ticks_kept_ratio":{"value":1,"unit":"ratio"}`) {
		t.Errorf("no stand-in for ticks_kept_ratio in:\n%s", got)
	}
}

// A traced line takes core, queue, bw and sim from the layers section,
// and reads 0 for a layer the workload does not reach.
func TestContractLineTraced(t *testing.T) {
	sim, _ := findWorkload("sim-multi")
	res, layers := newResult("sim-multi", true), newResult(layersName, true)
	res.Attempted = 10
	res.Metrics["bench.trace_overhead_pct"] = Metric{Value: 1.5, Unit: "%"}
	for _, d := range perLayer {
		if !sim.measures(d.name) && !strings.HasPrefix(d.name, "gateway.") && !strings.HasPrefix(d.name, "obs.") {
			layers.Metrics[d.name] = Metric{Value: 7, Unit: d.unit}
		}
	}
	got, err := contractLine(sim, res, layers)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"bench.trace_overhead_pct":{"value":1.5,"unit":"%"}`,
		`"core.phased.rates_ns_per_slot-sparse":{"value":7,"unit":"ns"}`,
		`"sim.alloc_b_per_run":{"value":7,"unit":"B"}`,
		`"gateway.tick.ns_per_slot":{"value":0,"unit":"ns"}`,
		`"obs.spans_ns_per_msg":{"value":0,"unit":"ns"}`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("no %s in:\n%s", want, got)
		}
	}
	delete(res.Metrics, "bench.trace_overhead_pct")
	if _, err := contractLine(sim, res, layers); err == nil {
		t.Error("sim-multi without its trace overhead produced a contract line")
	}
}

func TestVerdict(t *testing.T) {
	tests := []struct {
		name                          string
		worse, baseSpread, headSpread float64
		want                          string
	}{
		{"flat", 0.01, 0.02, 0.03, verdictOK},
		{"at the bound", 0.10, 0.02, 0.03, verdictOK},
		{"past the bound", 0.11, 0.02, 0.03, verdictRegression},
		{"better past the bound", -0.2, 0.02, 0.03, verdictImproved},
		{"base too noisy to tell", 0.5, 0.12, 0.03, verdictUnresolved},
		{"head too noisy to tell", 0.0, 0.01, 0.11, verdictUnresolved},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := verdict(tt.worse, tt.baseSpread, tt.headSpread, 0.10); got != tt.want {
				t.Errorf("verdict = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestWorseBy(t *testing.T) {
	for _, tt := range []struct {
		base, head float64
		better     string
		want       float64
	}{
		{100, 110, "lower", 0.10},
		{100, 110, "higher", -0.10},
		{100, 90, "higher", 0.10},
		{0, 5, "lower", 0},
	} {
		if got := worseBy(tt.base, tt.head, tt.better); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("worseBy(%v, %v, %s) = %v, want %v", tt.base, tt.head, tt.better, got, tt.want)
		}
	}
}

// oneBoundSpec is a cut-down BENCHMARK.json for the compare goldens: one
// workload, one bounded metric it measures and one it does not. The
// informational metrics ride along.
func oneBoundSpec() benchSpec {
	var s benchSpec
	s.Workloads = append(s.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "batch-1k"})
	s.EndToEnd = []specMetric{
		{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
		{Name: "ticks_kept_ratio", Unit: "ratio", Better: "higher", Bound: 0.25},
	}
	return s
}

func reportWith(p50, work Metric, failed int) Report {
	r := newResult("batch-1k", false)
	r.Attempted, r.Failed = 1000, failed
	r.Metrics["op_p50_us"], r.Metrics["work_per_s"] = p50, work
	r.Metrics["op_p90_us"] = Metric{Value: 2 * p50.Value, Spread: 0.2}
	return Report{Sets: [][]Result{{r}}}
}

func TestCompareGolden(t *testing.T) {
	base := reportWith(Metric{Value: 200, Spread: 0.05}, Metric{Value: 800000, Spread: 0.02}, 0)
	tests := []struct {
		name      string
		head      Report
		regressed bool
		want      string
	}{
		{"unchanged", reportWith(Metric{Value: 205, Spread: 0.04}, Metric{Value: 790000, Spread: 0.03}, 0), false, `
workload     metric             unit             base           head    worse  spread  spread  bound  verdict
batch-1k     op_p50_us          us              200.0          205.0    +2.5%    5.0%    4.0%    10%  ok
batch-1k     ticks_kept_ratio   ratio               -              -        -       -       -    25%  n/a
batch-1k     work_per_s         1/s            800000         790000    +1.2%    2.0%    3.0%     0%  (no bound)
batch-1k     op_p90_us          us              400.0          410.0    +2.5%   20.0%   20.0%     0%  (no bound)
batch-1k     fail_ratio         ratio               0              0                               0  ok
`},
		{"slower", reportWith(Metric{Value: 230, Spread: 0.04}, Metric{Value: 600000, Spread: 0.03}, 0), true, `
workload     metric             unit             base           head    worse  spread  spread  bound  verdict
batch-1k     op_p50_us          us              200.0          230.0   +15.0%    5.0%    4.0%    10%  REGRESSION
batch-1k     ticks_kept_ratio   ratio               -              -        -       -       -    25%  n/a
batch-1k     work_per_s         1/s            800000         600000   +25.0%    2.0%    3.0%     0%  (no bound)
batch-1k     op_p90_us          us              400.0          460.0   +15.0%   20.0%   20.0%     0%  (no bound)
batch-1k     fail_ratio         ratio               0              0                               0  ok
`},
		{"too noisy to tell", reportWith(Metric{Value: 300, Spread: 0.30}, Metric{Value: 600000, Spread: 0.03}, 0), false, `
workload     metric             unit             base           head    worse  spread  spread  bound  verdict
batch-1k     op_p50_us          us              200.0          300.0   +50.0%    5.0%   30.0%    10%  unresolved
batch-1k     ticks_kept_ratio   ratio               -              -        -       -       -    25%  n/a
batch-1k     work_per_s         1/s            800000         600000   +25.0%    2.0%    3.0%     0%  (no bound)
batch-1k     op_p90_us          us              400.0          600.0   +50.0%   20.0%   20.0%     0%  (no bound)
batch-1k     fail_ratio         ratio               0              0                               0  ok
`},
		{"faster but failing", reportWith(Metric{Value: 150, Spread: 0.02}, Metric{Value: 990000, Spread: 0.01}, 5), true, `
workload     metric             unit             base           head    worse  spread  spread  bound  verdict
batch-1k     op_p50_us          us              200.0          150.0   -25.0%    5.0%    2.0%    10%  improved
batch-1k     ticks_kept_ratio   ratio               -              -        -       -       -    25%  n/a
batch-1k     work_per_s         1/s            800000         990000   -23.8%    2.0%    1.0%     0%  (no bound)
batch-1k     op_p90_us          us              400.0          300.0   -25.0%   20.0%   20.0%     0%  (no bound)
batch-1k     fail_ratio         ratio               0          0.005                               0  REGRESSION
`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var b strings.Builder
			regressed := compareReports(&b, oneBoundSpec(), base, tt.head)
			if got := "\n" + b.String(); got != tt.want {
				t.Errorf("got:\n%s\nwant:\n%s", got, tt.want)
			}
			if regressed != tt.regressed {
				t.Errorf("regressed = %v, want %v", regressed, tt.regressed)
			}
		})
	}
}

func TestCompareMissingMetric(t *testing.T) {
	base := reportWith(Metric{Value: 200}, Metric{Value: 800000}, 0)
	head := reportWith(Metric{Value: 200}, Metric{Value: 800000}, 0)
	delete(head.Sets[0][0].Metrics, "op_p50_us")
	var b strings.Builder
	if !compareReports(&b, oneBoundSpec(), base, head) {
		t.Error("a metric that vanished from head did not count as a regression")
	}
	if !strings.Contains(b.String(), verdictMissing) {
		t.Errorf("no %q row in:\n%s", verdictMissing, b.String())
	}
}

func TestSetSpreadGolden(t *testing.T) {
	a := reportWith(Metric{Value: 400}, Metric{Value: 800000}, 0)
	b := reportWith(Metric{Value: 500}, Metric{Value: 760000}, 0)
	c := reportWith(Metric{Value: 440}, Metric{Value: 780000}, 0)
	rep := Report{Sets: [][]Result{a.Sets[0], b.Sets[0], c.Sets[0]}}
	var out strings.Builder
	exceeded := writeSetSpread(&out, oneBoundSpec(), rep)
	want := `
spread across 3 sets (interquartile range as a share of the median)
workload     metric             unit           median  spread  bound  verdict
batch-1k     op_p50_us          us              440.0   22.7%    10%  EXCEEDS
batch-1k     work_per_s         1/s            780000    5.1%     0%  (no bound)
batch-1k     op_p90_us          us              880.0   22.7%     0%  (no bound)
`
	if out.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", out.String(), want)
	}
	if !exceeded {
		t.Error("a spread past its bound was not reported")
	}
}

// Set-up time is held to its median, not to its spread, as by the
// benchmark's driver.
func TestSetSpreadExemptsSetup(t *testing.T) {
	var sets [][]Result
	for _, v := range []float64{3, 5, 4} {
		r := newResult("batch-1k", false)
		r.Metrics["setup_s"] = Metric{Value: v, Unit: "s"}
		sets = append(sets, []Result{r})
	}
	spec := oneBoundSpec()
	spec.EndToEnd = []specMetric{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}}
	var out strings.Builder
	exceeded := writeSetSpread(&out, spec, Report{Sets: sets})
	want := `
spread across 3 sets (interquartile range as a share of the median)
workload     metric             unit           median  spread  bound  verdict
batch-1k     setup_s            s              4.0000   50.0%    25%  exceeds (exempt)
`
	if out.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", out.String(), want)
	}
	if exceeded {
		t.Error("the spread of setup_s counted against the sets")
	}
}
