package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestTableAddRowPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row did not panic")
		}
	}()
	tb := &Table{ID: "X", Headers: []string{"a", "b"}}
	tb.AddRow("only one")
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{ID: "T", Title: "demo", Note: "a note", Headers: []string{"x", "y"}}
	tb.AddRow("1", "2")
	md := tb.Markdown()
	for _, want := range []string{"## T: demo", "a note", "| x | y |", "| 1 | 2 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{ID: "T", Headers: []string{"x", "y"}}
	tb.AddRow("1", "2")
	if got, want := tb.CSV(), "x,y\n1,2\n"; got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestRegistryCompleteness(t *testing.T) {
	wantIDs := []string{"FIG1", "FIG2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E23", "E24", "E25"}
	all := All()
	if len(all) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(wantIDs))
	}
	for i, id := range wantIDs {
		if all[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Run == nil || all[i].Title == "" || all[i].Reproduces == "" {
			t.Errorf("experiment %s incompletely registered", id)
		}
	}
}

// update rewrites results/ from this run instead of comparing with it:
//
//	go test ./internal/harness -run TestGoldenResults -update
//
// regenerates every deterministic experiment's .md and .csv, and E21's
// as well, the wall-clock soak whose table varies run to run.
var update = flag.Bool("update", false, "rewrite the results/ goldens, E21 included")

// ran memoizes each experiment's table, so the tests below that all want
// every experiment pay for one run of each.
var ran = map[string]*Table{}

func runExperiment(t *testing.T, e Experiment) *Table {
	t.Helper()
	if tb, ok := ran[e.ID]; ok {
		return tb
	}
	tb, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ran[e.ID] = tb
	return tb
}

// TestAllExperimentsRun executes every experiment and checks the tables
// are well-formed. This is the integration test for the whole
// repository: it exercises every algorithm, generator, and comparator
// end to end.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds total")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tb := runExperiment(t, e)
			if len(tb.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if tb.ID != e.ID {
				t.Errorf("table ID %s != experiment ID %s", tb.ID, e.ID)
			}
			for i, row := range tb.Rows {
				if len(row) != len(tb.Headers) {
					t.Errorf("row %d has %d cells, want %d", i, len(row), len(tb.Headers))
				}
			}
		})
	}
}

// TestGoldenResults enforces the repository's determinism claim: every
// experiment regenerates its committed results/ golden byte for byte.
// When an experiment legitimately changes, regenerate the goldens with
// -update.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	const goldenDir = "../../results"
	exps := All()
	if *update {
		exps = append(exps, Live()...)
	}
	for _, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			tb := runExperiment(t, e)
			golden := filepath.Join(goldenDir, strings.ToLower(e.ID))
			if *update {
				if err := os.WriteFile(golden+".md", []byte(tb.Markdown()), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden+".csv", []byte(tb.CSV()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden + ".md")
			if err != nil {
				t.Fatalf("missing golden: %v (regenerate with -update)", err)
			}
			if tb.Markdown() != string(want) {
				t.Errorf("%s drifted from %s.md; if intended, regenerate the goldens with -update", e.ID, golden)
			}
		})
	}
}

// TestExperimentsDocMatchesGoldens keeps EXPERIMENTS.md from drifting:
// the table under each deterministic experiment's "## <ID>:" heading must
// equal the one in its results/ golden, line for line.
func TestExperimentsDocMatchesGoldens(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		name := strings.ToLower(e.ID) + ".md"
		golden, err := os.ReadFile(filepath.Join("../../results", name))
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		want, got := sectionTable(string(golden), e.ID), sectionTable(string(doc), e.ID)
		if len(want) == 0 {
			t.Errorf("results/%s has no table under ## %s:", name, e.ID)
		}
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		if i < len(got) || i < len(want) {
			t.Errorf("EXPERIMENTS.md's %s table differs from results/%s at table line %d; copy the golden's table over",
				e.ID, name, i+1)
		}
	}
}

// sectionTable returns the first run of pipe-table lines under the
// "## <id>:" heading of md.
func sectionTable(md, id string) []string {
	var rows []string
	in := false
	for _, line := range strings.Split(md, "\n") {
		switch {
		case len(rows) > 0 && !strings.HasPrefix(line, "|"):
			return rows
		case strings.HasPrefix(line, "## "):
			in = strings.HasPrefix(line, "## "+id+":")
		case in && strings.HasPrefix(line, "|"):
			rows = append(rows, line)
		}
	}
	return rows
}

// column returns the values of a named column as floats.
func column(t *testing.T, tb *Table, name string) []float64 {
	t.Helper()
	idx := -1
	for i, h := range tb.Headers {
		if h == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("table %s has no column %q (have %v)", tb.ID, name, tb.Headers)
	}
	out := make([]float64, len(tb.Rows))
	for i, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[idx], 64)
		if err != nil {
			t.Fatalf("table %s row %d column %s: %v", tb.ID, i, name, err)
		}
		out[i] = v
	}
	return out
}

func TestE3RatiosWithinTheorem6Bound(t *testing.T) {
	tb, err := Thm6SweepB()
	if err != nil {
		t.Fatal(err)
	}
	ratios := column(t, tb, "ratio_vs_certLB")
	bounds := column(t, tb, "log2_BA")
	delays := column(t, tb, "max_delay")
	delayBounds := column(t, tb, "bound_2DO")
	for i := range ratios {
		// The theorem bound is log2(BA) + O(1); allow the constant.
		if ratios[i] > bounds[i]+2 {
			t.Errorf("row %d: ratio %v exceeds log2(BA)+2 = %v", i, ratios[i], bounds[i]+2)
		}
		if delays[i] > delayBounds[i] {
			t.Errorf("row %d: delay %v exceeds bound %v", i, delays[i], delayBounds[i])
		}
	}
}

// TestMultiSweepsWithinTheirBounds holds E7 (Theorem 14) and E8
// (Theorem 17) to their bounds: change ratio within 3k, peak total
// bandwidth and max delay within the policy's promise.
func TestMultiSweepsWithinTheirBounds(t *testing.T) {
	for _, tc := range []struct {
		id    string
		sweep func() (*Table, error)
	}{
		{"E7", Thm14SweepK},
		{"E8", Thm17SweepK},
	} {
		t.Run(tc.id, func(t *testing.T) {
			tb, err := tc.sweep()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct{ got, bound string }{
				{"ratio", "bound_3k"},
				{"max_total_bw", "bw_bound"},
				{"max_delay", "bound_2DO"},
			} {
				got, bound := column(t, tb, c.got), column(t, tb, c.bound)
				for i := range got {
					if got[i] > bound[i] {
						t.Errorf("row %d: %s %v exceeds %s %v", i, c.got, got[i], c.bound, bound[i])
					}
				}
			}
		})
	}
}

func TestE11NoSlackGrowsLinearly(t *testing.T) {
	tb, err := NoSlackAdversary()
	if err != nil {
		t.Fatal(err)
	}
	noSlack := column(t, tb, "no_slack_changes")
	paper := column(t, tb, "paper_changes")
	rounds := column(t, tb, "rounds")
	last := len(rounds) - 1
	// The no-slack policy's changes scale with rounds...
	if noSlack[last] < 2*rounds[last] {
		t.Errorf("no-slack changes %v do not grow with rounds %v", noSlack[last], rounds[last])
	}
	// ...while the paper's algorithm stays flat on this workload.
	if paper[last] > paper[0]+4 {
		t.Errorf("paper changes grew from %v to %v; expected bounded", paper[0], paper[last])
	}
}

func TestE17PaperFitsClaim2Buffer(t *testing.T) {
	tb, err := BufferSizing()
	if err != nil {
		t.Fatal(err)
	}
	// Every paper-single row must have zero loss and peak queue within
	// the Claim 2 bound.
	for i, row := range tb.Rows {
		if row[1] != "paper-single" {
			continue
		}
		peak := column(t, tb, "peak_queue")[i]
		bound := column(t, tb, "claim2_bound")[i]
		dropped := column(t, tb, "dropped_at_bound")[i]
		if peak > bound {
			t.Errorf("row %d (%s): peak queue %v exceeds Claim 2 bound %v", i, row[0], peak, bound)
		}
		if dropped != 0 {
			t.Errorf("row %d (%s): paper algorithm dropped %v bits at the Claim 2 buffer", i, row[0], dropped)
		}
	}
}

func TestE12ChangesTrackLogB(t *testing.T) {
	tb, err := LogBLowerBound()
	if err != nil {
		t.Fatal(err)
	}
	perSweep := column(t, tb, "changes_per_sweep")
	logs := column(t, tb, "log2_BA")
	// Linear-in-log growth: each doubling of log2(BA) adds changes.
	for i := 1; i < len(perSweep); i++ {
		if perSweep[i] <= perSweep[i-1] {
			t.Errorf("changes_per_sweep not increasing: %v", perSweep)
			break
		}
	}
	// And the slope is roughly constant per log2 step.
	slope0 := (perSweep[1] - perSweep[0]) / (logs[1] - logs[0])
	slopeN := (perSweep[len(perSweep)-1] - perSweep[len(perSweep)-2]) /
		(logs[len(logs)-1] - logs[len(logs)-2])
	if slope0 <= 0 || slopeN <= 0 {
		t.Errorf("non-positive slopes %v, %v", slope0, slopeN)
	}
}

func TestE10GlobalRatioWithinBound(t *testing.T) {
	tb, err := Combined()
	if err != nil {
		t.Fatal(err)
	}
	ratios := column(t, tb, "global_ratio")
	bounds := column(t, tb, "bound_log2BA")
	delays := column(t, tb, "max_delay")
	delayBounds := column(t, tb, "bound")
	bwUsed := column(t, tb, "max_total_bw")
	bwBounds := column(t, tb, "bw_bound")
	for i := range ratios {
		if ratios[i] > bounds[i] {
			t.Errorf("row %d: global ratio %v exceeds log2(BA) = %v", i, ratios[i], bounds[i])
		}
		if delays[i] > delayBounds[i] {
			t.Errorf("row %d: delay %v exceeds %v", i, delays[i], delayBounds[i])
		}
		if bwUsed[i] > bwBounds[i] {
			t.Errorf("row %d: bandwidth %v exceeds %v", i, bwUsed[i], bwBounds[i])
		}
	}
}

func TestE14GlobalDefinitionResetsLess(t *testing.T) {
	tb, err := GlobalVsLocalUtil()
	if err != nil {
		t.Fatal(err)
	}
	stages := column(t, tb, "stages")
	// Rows alternate local, global per workload: global never has more
	// stages than local on the same workload.
	for i := 0; i+1 < len(stages); i += 2 {
		if stages[i+1] > stages[i] {
			t.Errorf("workload %s: global stages %v > local %v",
				tb.Rows[i][0], stages[i+1], stages[i])
		}
	}
}

func TestE15QuantizationBuysChanges(t *testing.T) {
	tb, err := QuantizationAblation()
	if err != nil {
		t.Fatal(err)
	}
	ratios := column(t, tb, "changes_ratio")
	for i, r := range ratios {
		if r < 1 {
			t.Errorf("row %d (%s): unquantized made fewer changes (ratio %v)", i, tb.Rows[i][0], r)
		}
	}
}

func TestE16AdaptiveSeparation(t *testing.T) {
	tb, err := AdaptiveAdversary()
	if err != nil {
		t.Fatal(err)
	}
	// Group rows of the longest duel: no-slack ratio must dwarf the
	// paper's.
	var noSlack, paper float64
	for i, row := range tb.Rows {
		if row[0] != "8192" {
			continue
		}
		r := column(t, tb, "ratio")[i]
		switch row[1] {
		case "no-slack (per-tick)":
			noSlack = r
		case "paper-single":
			paper = r
		}
	}
	if noSlack < 100*paper {
		t.Errorf("adaptive separation weak: no-slack %v vs paper %v", noSlack, paper)
	}
}

func TestE18RegimesSeparate(t *testing.T) {
	tb, err := WorkloadCharacterization()
	if err != nil {
		t.Fatal(err)
	}
	p2m := column(t, tb, "peak_to_mean")
	byName := map[string]int{}
	for i, row := range tb.Rows {
		byName[row[0]] = i
	}
	if p2m[byName["cbr"]] != 1 {
		t.Errorf("cbr peak/mean = %v, want 1", p2m[byName["cbr"]])
	}
	if p2m[byName["pareto"]] < 10 {
		t.Errorf("pareto peak/mean = %v, want heavy-tailed", p2m[byName["pareto"]])
	}
	hurstCol := -1
	for i, h := range tb.Headers {
		if h == "hurst" {
			hurstCol = i
		}
	}
	if got := tb.Rows[byName["selfsim"]][hurstCol]; got < "0.60" {
		t.Errorf("selfsim Hurst = %s, want > 0.60", got)
	}
}
