package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Metric is one measured number: the median over the slices of the
// measured phase, the interquartile range over those slices as a share
// of that median, and how many timed samples are behind it.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread"`
	Samples int     `json:"samples"`
}

// Result is one pass of one workload.
type Result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
}

func newResult(workload string, traced bool) Result {
	return Result{Workload: workload, Traced: traced, Metrics: make(map[string]Metric)}
}

func (r *Result) setTally(t *tally) {
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.failures
}

// FailRatio is failed or refused operations over operations attempted.
func (r Result) FailRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// Correct reports whether every operation and every check passed.
func (r Result) Correct() bool { return r.Attempted > 0 && r.Failed == 0 }

// Box is the fingerprint of the machine a report was measured on.
type Box struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
}

func fingerprint() Box {
	b := Box{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Kernel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				b.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		b.Kernel = strings.TrimSpace(string(data))
	}
	return b
}

// Report is everything one dynbench invocation measured.
type Report struct {
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Box       Box     `json:"box"`
	Transport string  `json:"transport"`
	Load      string  `json:"load"`
	// Sets holds one entry per -sets repetition; each is the untraced
	// pass of every workload run. End-to-end numbers come from here only.
	Sets [][]Result `json:"sets"`
	// Layers is the traced pass, when one was asked for: every workload,
	// then the layers section as a result of its own.
	Layers []Result `json:"layers,omitempty"`
}

func newReport(o runOpts) Report {
	return Report{
		Seed:      o.seed,
		Seconds:   o.seconds,
		Box:       fingerprint(),
		Transport: "TCP over the host loopback (127.0.0.1); the gateway runs in a child process",
		Load:      fmt.Sprintf("closed loop, one process, %d connections, one goroutine each", loadConns()),
	}
}

// metricDef names a metric and fixes its unit; BENCHMARK.json repeats
// both and adds direction and bound, and a test holds the two together.
type metricDef struct{ name, unit string }

// endToEnd is what the untraced pass reports under a bound. The
// benchmark's driver wants every one of them from every workload, so
// each name is generic and benchmarks/README.md says what it is on each
// workload; the two a workload cannot measure (workload.measures) are
// left out of its table and carry notMeasured in the driver's line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"ticks_kept_ratio", "ratio"},
	{"heap_per_slot_b", "B"},
}

// informational is reported beside the end-to-end metrics without a
// bound. Throughput and tail latency are what a user feels first, but
// the driver refuses a benchmark whose metric spreads past its bound
// over ten runs, a bound is a quarter at most, and on the shared
// two-core guest this was built on these two spread by up to 32 % and
// 52 %; benchmarks/README.md has the numbers.
var informational = []specMetric{
	{Name: "work_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p90_us", Unit: "us", Better: "lower"},
}

// notMeasured stands in the driver's line for an end-to-end metric the
// workload does not measure; the driver accepts no 0 there.
const notMeasured = 1

// layersName is the workload name of the layers section's result.
const layersName = "layers"

// defsFor returns the metric list of a pass.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// writeHeader prints what the report says once: inputs, box, transport.
func writeHeader(w io.Writer, r Report) {
	fmt.Fprintf(w, "dynbench: seed %d, %gs per measured phase\n", r.Seed, r.Seconds)
	fmt.Fprintf(w, "box: %s, %d cores, GOMAXPROCS %d, kernel %s, %s\n",
		r.Box.CPU, r.Box.Cores, r.Box.GOMAXPROCS, r.Box.Kernel, r.Box.Go)
	fmt.Fprintf(w, "transport: %s\n", r.Transport)
	fmt.Fprintf(w, "load: %s\n", r.Load)
}

// writeResult prints one pass of one workload as a table: every metric
// it measured by name with its unit, spread over slices and sample count.
func writeResult(w io.Writer, r Result) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n%s (%s): attempted %d, failed %d, fail_ratio %.6g\n",
		r.Workload, pass, r.Attempted, r.Failed, r.FailRatio())
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  %-44s %16s %-6s %8s %9s\n", "metric", "value", "unit", "spread", "samples")
	row := func(name, note string) {
		if m, ok := r.Metrics[name]; ok {
			fmt.Fprintf(w, "  %-44s %16s %-6s %7.1f%% %9d%s\n", name, formatValue(m.Value), m.Unit, 100*m.Spread, m.Samples, note)
		}
	}
	for _, d := range defsFor(r.Traced) {
		row(d.name, "")
	}
	if !r.Traced {
		for _, d := range informational {
			row(d.Name, "  (no bound)")
		}
	}
}

// formatValue keeps four significant decimals on small numbers and none
// on large ones, so columns of µs and of millions both read.
func formatValue(v float64) string {
	switch a := v; {
	case a < 0:
		return "-" + formatValue(-v)
	case a == 0:
		return "0"
	case a < 100:
		return fmt.Sprintf("%.4f", v)
	case a < 100000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// contractLine is the last line of standard output in driver mode: one
// JSON object with exactly the keys the benchmark contract names, every
// value with all its digits. The contract wants every metric of the pass
// from every workload: one the workload does not measure reads
// notMeasured (end to end) or 0 (per layer), and the traced line takes
// the layer metrics no workload reaches from the layers section.
func contractLine(w workload, r Result, layers Result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, make(map[string]value)}
	for _, d := range defsFor(r.Traced) {
		m, ok := r.Metrics[d.name]
		if !ok {
			m, ok = layers.Metrics[d.name]
		}
		switch {
		case ok:
		case w.measures(d.name):
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, d.name)
		case !r.Traced:
			m.Value = notMeasured
		}
		out.Metrics[d.name] = value{m.Value, d.unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

func writeReport(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, append(data, '\n'))
}

// writeFile writes data to path, making the directory if need be.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// one is a metric that is a single reading, not a median over slices.
func one(value float64, unit string, samples int) Metric {
	return Metric{Value: value, Unit: unit, Samples: samples}
}

func readReport(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
