// Package lint is the project-specific static-analysis suite behind
// cmd/bwlint. It loads every package of the module with the standard
// library's go/parser + go/types (no external tooling) and runs the
// checks that only a linter can make, because they hold on paths no
// test exercises:
//
//   - guarded-by: struct fields annotated "guarded by <mu>" may only
//     be touched while that mutex is held (or from constructors and
//     functions that document the lock as a precondition).
//   - unit-hygiene: bw.Rate, bw.Bits and bw.Tick are int64 aliases the
//     compiler cannot tell apart; crossings (rate x ticks, bits /
//     ticks, mixed comparisons) must go through the units.go helpers.
//   - determinism: golden-producing packages marked
//     bwlint:deterministic must not call time.Now, use the global
//     math/rand source, or range over maps unordered.
//
// Every check walks one package's syntax and types at a time; there is
// no whole-program call graph. Invariants a test can run are tests, not
// lints: zero allocation on the hot paths (`make zeroalloc`), nil-safe
// observability types (obs TestNilReceiversNoPanic) and an event for
// every allocation change (core TestSparseMatchesDense and
// TestSingleSessionEmitsEvents, route TestEventsReplayToLoads); DESIGN §7
// has the table of what runs where.
//
// Each finding is reported as "file:line:col: [check] message"; any
// finding makes the driver exit non-zero, which is how CI enforces the
// invariants on every PR.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one reported invariant violation.
type Finding struct {
	File    string
	Line    int
	Col     int
	Check   string
	Message string
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Reporter receives one violation at a source position.
type Reporter func(pos token.Pos, format string, args ...any)

// Check is one analysis pass. Run receives the whole loaded program and
// reports violations for the listed (linted) packages only; checks may
// read non-listed dependency packages for context (e.g. declared units).
type Check interface {
	// Name is the short identifier used in output and -checks filters.
	Name() string
	// Doc is a one-line description of the protected invariant.
	Doc() string
	Run(prog *Program, report Reporter)
}

// Stater is implemented by checks that track run statistics (escape
// hatches in effect); bwlint -v prints them after each run.
type Stater interface {
	// Stats returns a one-line summary of the last Run.
	Stats() string
}

// Checks returns every check in its default configuration.
func Checks() []Check {
	return []Check{
		NewDeterminism(),
		NewGuardedBy(),
		NewUnitHygiene(),
	}
}

// LoadProgram loads patterns under the module rooted at root once, for
// sharing across checks and output formats.
func LoadProgram(root string, patterns []string) (*Program, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	return loader.Load(patterns...)
}

// Select filters checks by comma-separated names ("" keeps all).
func Select(checks []Check, names string) ([]Check, error) {
	if names == "" {
		return checks, nil
	}
	byName := make(map[string]Check, len(checks))
	for _, c := range checks {
		byName[c.Name()] = c
	}
	var out []Check
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (have %s)", name, checkNames(checks))
		}
		out = append(out, c)
	}
	return out, nil
}

func checkNames(checks []Check) string {
	names := make([]string, len(checks))
	for i, c := range checks {
		names[i] = c.Name()
	}
	return strings.Join(names, ", ")
}

// Run loads patterns under the module rooted at root and applies checks,
// returning findings sorted by position.
func Run(root string, patterns []string, checks []Check) ([]Finding, error) {
	prog, err := LoadProgram(root, patterns)
	if err != nil {
		return nil, err
	}
	return RunProgram(prog, checks), nil
}

// RunProgram applies checks to an already-loaded program.
func RunProgram(prog *Program, checks []Check) []Finding {
	var findings []Finding
	for _, c := range checks {
		name := c.Name()
		c.Run(prog, func(pos token.Pos, format string, args ...any) {
			p := prog.Fset.Position(pos)
			findings = append(findings, Finding{
				File:    p.Filename,
				Line:    p.Line,
				Col:     p.Column,
				Check:   name,
				Message: fmt.Sprintf(format, args...),
			})
		})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return findings
}
