package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"dynbw/internal/lint"
)

func loadFixture(t *testing.T, dirs ...string) *lint.Program {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = filepath.Join("internal", "lint", "testdata", "src", d)
	}
	prog, err := lint.LoadProgram(root, patterns)
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	return prog
}

// TestProgramSharedAcrossChecks is the single-load regression test: one
// Program serves every check and each package is parsed exactly once,
// shared dependencies included.
func TestProgramSharedAcrossChecks(t *testing.T) {
	prog := loadFixture(t, "units", "guarded", "determ")
	if prog.Loads != len(prog.All) {
		t.Errorf("Loads = %d, want one parse per package (%d)", prog.Loads, len(prog.All))
	}
}

// TestLoaderTypeErrorPackage: a package that fails type checking is
// still loaded (errors recorded) and syntactic/partially-typed checks
// still produce findings.
func TestLoaderTypeErrorPackage(t *testing.T) {
	prog := loadFixture(t, "broken")
	if len(prog.Pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(prog.Pkgs))
	}
	if len(prog.Pkgs[0].TypeErrors) == 0 {
		t.Fatal("fixture type error was not recorded")
	}
	findings := lint.RunProgram(prog, []lint.Check{lint.NewDeterminism()})
	found := false
	for _, f := range findings {
		if strings.Contains(f.Message, "time.Now") {
			found = true
		}
	}
	if !found {
		t.Errorf("determinism did not run over the type-error package; findings: %v", findings)
	}
}

// TestLoaderSkipsTestOnlyPackages: recursive patterns skip directories
// with only _test.go files, and naming one directly is an error.
func TestLoaderSkipsTestOnlyPackages(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lint.LoadProgram(root, []string{filepath.Join("internal", "lint", "testdata", "src") + "/..."})
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	for _, pkg := range prog.Pkgs {
		if strings.HasSuffix(pkg.ImportPath, "/testonly") {
			t.Errorf("test-only package was listed: %s", pkg.ImportPath)
		}
	}
	var sawDeterm bool
	for _, pkg := range prog.Pkgs {
		if strings.HasSuffix(pkg.ImportPath, "/determ") {
			sawDeterm = true
		}
	}
	if !sawDeterm {
		t.Error("recursive fixture load missed the determ package")
	}
	if _, err := lint.LoadProgram(root, []string{filepath.Join("internal", "lint", "testdata", "src", "testonly")}); err == nil {
		t.Error("directly naming a test-only package did not error")
	}
}

// TestSelectUnknownListsAvailable: the error for an unknown check name
// enumerates what is available.
func TestSelectUnknownListsAvailable(t *testing.T) {
	_, err := lint.Select(lint.Checks(), "no-such-check")
	if err == nil {
		t.Fatal("Select accepted an unknown check name")
	}
	for _, name := range []string{"determinism", "guarded-by", "unit-hygiene"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("Select error %q does not list available check %s", err, name)
		}
	}
}

// TestCheckStats: the escape-counting check summarizes its last run.
func TestCheckStats(t *testing.T) {
	det := lint.NewDeterminism()
	det.Required = nil
	prog := loadFixture(t, "determ")
	lint.RunProgram(prog, []lint.Check{det})
	if s := det.Stats(); !strings.Contains(s, "1 bwlint:detok") {
		t.Errorf("determinism Stats = %q, want 1 escape in effect", s)
	}
}
