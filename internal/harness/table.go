// Package harness defines and runs the reproduction experiments: the
// paper's two illustrative figures and one validation experiment per
// theorem, as indexed in DESIGN.md §4. Each experiment produces a Table
// rendered as markdown/CSV. Tables are committed as goldens under
// results/ (go test ./internal/harness -update rewrites them) and
// regenerated byte-for-byte by every test run, so the package must stay
// reproducible:
//
// bwlint:deterministic
package harness

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID    string
	Title string
	// Note records methodology caveats (substitutions, slack factors).
	Note    string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; it panics if the cell count does not match the
// header (an experiment bug, not an input error).
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("harness: row has %d cells, table %q has %d headers",
			len(cells), t.ID, len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// Markdown renders the table as a GitHub-flavored markdown section.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s: %s\n\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n\n", t.Note)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, c := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2) + "|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
// Cells are expected to be CSV-safe (numbers and short identifiers).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	// ID matches DESIGN.md §4 (FIG1, FIG2, E3...E13).
	ID string
	// Title is a one-line description.
	Title string
	// Reproduces names the paper artifact (figure/theorem) validated.
	Reproduces string
	// Run executes the experiment.
	Run func() (*Table, error)
}

// itoa and f2/f1 are tiny formatting helpers shared by the experiments.
func itoa[T ~int | ~int64](v T) string { return strconv.FormatInt(int64(v), 10) }

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
