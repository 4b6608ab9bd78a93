package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRunPolicies(t *testing.T) {
	for _, policy := range []string{"phased", "continuous", "combined"} {
		t.Run(policy, func(t *testing.T) {
			var buf strings.Builder
			args := []string{"-policy", policy, "-k", "3", "-phases", "6", "-phaselen", "32"}
			if err := run(args, &buf); err != nil {
				t.Fatalf("run %s: %v", policy, err)
			}
			out := buf.String()
			for _, want := range []string{"session changes:", "max delay:", "session  0"} {
				if !strings.Contains(out, want) {
					t.Errorf("%s output missing %q:\n%s", policy, want, out)
				}
			}
		})
	}
}

func TestRunFromTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.csv")
	csv := "tick,session,bits\n"
	for tick := 0; tick < 64; tick++ {
		for s := 0; s < 2; s++ {
			bits := "4"
			if s == 1 {
				bits = "2"
			}
			csv += strings.Join([]string{strconv.Itoa(tick), strconv.Itoa(s), bits}, ",") + "\n"
		}
	}
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-trace", path, "-bo", "32"}, &buf); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	if !strings.Contains(buf.String(), "sessions:          2") {
		t.Errorf("session count not parsed from trace:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{"-policy", "nope"},
		{"-trace", "/does/not/exist.csv"},
		{"-policy", "combined", "-ba", "7"},
		{"-k", "0"},
		{"-policy", "phased,continuous", "-series", "x.csv"},
	}
	for _, args := range tests {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSingleSessionErrors: one session served by a single-session
// policy rejects the same bad input as the shared-channel policies.
func TestRunSingleSessionErrors(t *testing.T) {
	tests := [][]string{
		{"-k", "1", "-policy", "nope"},
		{"-k", "1", "-policy", "single", "-workload", "nope"},
		{"-k", "1", "-policy", "single", "-trace", "/does/not/exist.csv"},
		{"-k", "1", "-policy", "single", "-ba", "7"}, // not a power of two
		{"-k", "1", "-policy", "peak", "-ba", "7"},   // a baseline runs under the same parameters
	}
	for _, args := range tests {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunMultiPolicyParallelism: a comma-separated -policy list produces
// one report section per policy, in order, with bytes identical for
// every -j value (the ParRows determinism contract).
func TestRunMultiPolicyParallelism(t *testing.T) {
	base := []string{"-policy", "phased,continuous,combined", "-k", "3", "-phases", "6", "-phaselen", "32"}
	var ref strings.Builder
	if err := run(append([]string{"-j", "1"}, base...), &ref); err != nil {
		t.Fatal(err)
	}
	for _, j := range []string{"2", "8"} {
		var buf strings.Builder
		if err := run(append([]string{"-j", j}, base...), &buf); err != nil {
			t.Fatalf("-j %s: %v", j, err)
		}
		if buf.String() != ref.String() {
			t.Errorf("-j %s output differs from -j 1", j)
		}
	}
	out := ref.String()
	for _, policy := range []string{"phased", "continuous", "combined"} {
		if !strings.Contains(out, "policy:            "+policy+"\n") {
			t.Errorf("missing section for %s:\n%s", policy, out)
		}
	}
	if first := strings.Index(out, "policy:            phased"); first != 0 {
		t.Errorf("sections out of order: phased section at offset %d", first)
	}
	if strings.Index(out, "continuous") > strings.Index(out, "combined") {
		t.Errorf("sections out of order:\n%s", out)
	}
}

// TestRunBadPolicyInList: an unknown entry anywhere in the list fails
// the whole run.
func TestRunBadPolicyInList(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-policy", "phased,nope"}, &buf); err == nil {
		t.Error("unknown policy in list accepted")
	}
}

// TestRunDefaults: with no flags, one phased run over a planted workload.
func TestRunDefaults(t *testing.T) {
	var buf strings.Builder
	if err := run(nil, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"policy:            phased", "changes:", "max delay:", "p50/p99 delay:", "global util:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunAllPolicies: every single-session policy serves one session
// alone, the paper's own single-session setting; the paper's two claim
// their guarantees.
func TestRunAllPolicies(t *testing.T) {
	for _, policy := range []string{"single", "modified", "peak", "mean", "pertick", "periodic", "ewma"} {
		t.Run(policy, func(t *testing.T) {
			var buf strings.Builder
			args := []string{"-policy", policy, "-k", "1", "-workload", "onoff", "-ticks", "300"}
			if err := run(args, &buf); err != nil {
				t.Fatalf("run %s: %v", policy, err)
			}
			paper := policy == "single" || policy == "modified"
			if got := strings.Contains(buf.String(), "(guarantee 16)"); got != paper {
				t.Errorf("%s: delay guarantee shown %v, want %v:\n%s", policy, got, paper, buf.String())
			}
		})
	}
}

// TestRunOneSessionPinned: at -k 1 a single-session policy reproduces
// the single-session simulator's figures: a generated workload scaled to
// B_A (pareto's bursts start at B_A, video's P frames are B_A/5) and a
// tick,bits trace clamped to what B_A serves within D_O. The pinned
// lines are that simulator's output, in this command's layout.
func TestRunOneSessionPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spiky.csv")
	if err := os.WriteFile(path, []byte("tick,bits\n0,5000\n1,0\n2,900\n3,12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		args []string
		want []string
	}{
		{[]string{"-policy", "single", "-workload", "pareto"}, []string{
			"arrived bits:      76043\n", "allocated bits:    121644\n", "session changes:   236\n",
			"max delay:         10 (guarantee 16)\n", "p50/p99 delay:     2 / 8\n",
			"global util:       0.625\n", "flex-window util:  0.414 (guarantee 0.167)\n",
		}},
		{[]string{"-policy", "modified", "-workload", "video", "-ticks", "600"}, []string{
			"arrived bits:      12504\n", "allocated bits:    18158\n", "session changes:   44\n",
			"p50/p99 delay:     1 / 9\n", "global util:       0.689\n",
		}},
		{[]string{"-policy", "pertick", "-workload", "cbr", "-ticks", "300"}, []string{
			"arrived bits:      19200\n", "session changes:   27\n", "peak total bw:     64\n", "p50/p99 delay:     8 / 8\n",
		}},
		{[]string{"-policy", "single", "-trace", path}, []string{ // 5000 and 900 bits clamp to 2304 and 512
			"arrived bits:      2828\n", "allocated bits:    3072\n", "p50/p99 delay:     5 / 8\n", "global util:       0.921\n",
		}},
	}
	for _, tc := range tests {
		var buf strings.Builder
		if err := run(append([]string{"-k", "1"}, tc.args...), &buf); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%v: output missing %q:\n%s", tc.args, want, buf.String())
			}
		}
	}
}

func TestRunAllWorkloads(t *testing.T) {
	for _, w := range []string{"cbr", "onoff", "pareto", "video", "spike"} {
		t.Run(w, func(t *testing.T) {
			var buf strings.Builder
			args := []string{"-policy", "single,phased", "-k", "2", "-workload", w, "-ticks", "300"}
			if err := run(args, &buf); err != nil {
				t.Fatalf("run %s: %v", w, err)
			}
		})
	}
}

// TestRunTraceFile: a two-column CSV is one session's trace.
func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demand.csv")
	if err := os.WriteFile(path, []byte("tick,bits\n0,10\n1,0\n2,30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-policy", "single", "-trace", path}, &buf); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	for _, want := range []string{"sessions:          1 over 3 ticks", "arrived bits:      40"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunPlotAndSeries(t *testing.T) {
	seriesPath := filepath.Join(t.TempDir(), "series.csv")
	var buf strings.Builder
	args := []string{"-policy", "single", "-k", "1", "-workload", "onoff", "-ticks", "400", "-plot", "-series", seriesPath}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run -plot: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"demand", "allocation", "queue"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot output missing %q", want)
		}
	}
	data, err := os.ReadFile(seriesPath)
	if err != nil {
		t.Fatalf("read series: %v", err)
	}
	if !strings.HasPrefix(string(data), "tick,demand,allocation,queue\n") {
		t.Errorf("series header wrong: %q", string(data[:40]))
	}
}
