package lint_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"dynbw/internal/lint"
)

// goldenDirs maps each testdata package to the check it exercises.
var goldenDirs = []struct {
	dir   string
	check string
}{
	{"guarded", "guarded-by"},
	{"units", "unit-hygiene"},
	{"determ", "determinism"},
}

// wantRe extracts golden expectations: a `want "regex"` marker anywhere
// in an end-of-line comment.
var wantRe = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// expectation is one want-marker: a regex that some finding on that
// file:line must match.
type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
}

func parseWants(t *testing.T, dir string) []expectation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var wants []expectation
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			idx := strings.Index(text, "//")
			if idx < 0 {
				continue
			}
			m := wantRe.FindStringSubmatch(text[idx:])
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), line, m[1], err)
			}
			wants = append(wants, expectation{file: e.Name(), line: line, re: re})
		}
		f.Close()
	}
	return wants
}

// TestGolden runs each check over its testdata package and requires an
// exact two-way match between findings and want-markers: every marker
// matched by a finding on its line, every finding claimed by a marker.
func TestGolden(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenDirs {
		t.Run(tc.dir, func(t *testing.T) {
			checks, err := lint.Select(lint.Checks(), tc.check)
			if err != nil {
				t.Fatal(err)
			}
			pkgDir := filepath.Join("testdata", "src", tc.dir)
			findings, err := lint.Run(root, []string{filepath.Join("internal", "lint", pkgDir)}, checks)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			wants := parseWants(t, pkgDir)
			if len(wants) == 0 {
				t.Fatalf("no want markers in %s", pkgDir)
			}

			claimed := make([]bool, len(findings))
			for _, w := range wants {
				matched := false
				for i, f := range findings {
					if filepath.Base(f.File) == w.file && f.Line == w.line && w.re.MatchString(f.Message) {
						claimed[i] = true
						matched = true
					}
				}
				if !matched {
					t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
				}
			}
			for i, f := range findings {
				if !claimed[i] {
					t.Errorf("unexpected finding: %s", f)
				}
			}
		})
	}
}

func TestSelect(t *testing.T) {
	all := lint.Checks()
	names := make([]string, len(all))
	for i, c := range all {
		names[i] = c.Name()
	}
	sort.Strings(names)
	if want := []string{"determinism", "guarded-by", "unit-hygiene"}; !slices.Equal(names, want) {
		t.Fatalf("checks %v, want exactly %v", names, want)
	}

	got, err := lint.Select(all, "unit-hygiene, determinism")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name() != "unit-hygiene" || got[1].Name() != "determinism" {
		t.Fatalf("Select returned %v", checkNames(got))
	}

	if _, err := lint.Select(all, "no-such-check"); err == nil {
		t.Fatal("Select accepted an unknown check name")
	}

	got, err = lint.Select(all, "")
	if err != nil || len(got) != len(all) {
		t.Fatalf("empty selection: got %d checks, err %v", len(got), err)
	}
}

func checkNames(checks []lint.Check) string {
	names := make([]string, len(checks))
	for i, c := range checks {
		names[i] = c.Name()
	}
	return strings.Join(names, ",")
}

func TestFindingString(t *testing.T) {
	f := lint.Finding{File: "a/b.go", Line: 7, Col: 3, Check: "unit-hygiene", Message: "boom"}
	want := "a/b.go:7:3: [unit-hygiene] boom"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := fmt.Sprint(f); got != want {
		t.Errorf("Sprint = %q, want %q", got, want)
	}
}

// TestLoaderRejectsOutside ensures patterns cannot escape the module.
func TestLoaderRejectsOutside(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lint.Run(root, []string{"/"}, lint.Checks()); err == nil {
		t.Fatal("Run accepted a directory outside the module root")
	}
}
