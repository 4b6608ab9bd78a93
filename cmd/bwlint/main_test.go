package main

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, errOut.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "determinism guarded-by unit-hygiene"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names = %q, want exactly %q", got, want)
	}
}

func TestBadFlagsExit2(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag exited %d, want 2", code)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-checks", "no-such-check"}, &out, &errOut); code != 2 {
		t.Errorf("unknown check exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown check") {
		t.Errorf("stderr missing diagnosis: %s", errOut.String())
	}
}

func TestFindingsExit1(t *testing.T) {
	dir := filepath.Join("internal", "lint", "testdata", "src", "units")
	var out, errOut strings.Builder
	code := run([]string{"-checks", "unit-hygiene", dir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("lint over %s exited %d, want 1; stderr: %s", dir, code, errOut.String())
	}
	if !strings.Contains(out.String(), "[unit-hygiene]") {
		t.Errorf("text output missing check tag:\n%s", out.String())
	}
}

func TestGitHubOutput(t *testing.T) {
	dir := filepath.Join("internal", "lint", "testdata", "src", "units")
	var out, errOut strings.Builder
	code := run([]string{"-github", "-checks", "unit-hygiene", dir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exited %d, want 1; stderr: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	annRe := regexp.MustCompile(`^::error file=internal/lint/testdata/src/units/[^,]+\.go,line=\d+,col=\d+::\[unit-hygiene\] `)
	for _, line := range lines {
		if !annRe.MatchString(line) {
			t.Errorf("line is not a workflow-command annotation: %q", line)
		}
	}
}

func TestVerboseTiming(t *testing.T) {
	dir := filepath.Join("internal", "lint", "testdata", "src", "determ")
	var out, errOut strings.Builder
	code := run([]string{"-v", "-checks", "determinism", dir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exited %d, want 1; stderr: %s", code, errOut.String())
	}
	if !regexp.MustCompile(`bwlint: loaded \d+ packages in .+, ran 1 checks in .+: \d+ finding\(s\)`).MatchString(errOut.String()) {
		t.Errorf("stderr missing timing line:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "bwlint:detok escape(s) in effect") {
		t.Errorf("stderr missing determinism Stats line:\n%s", errOut.String())
	}
}

// TestRealModuleClean is the acceptance test from the issue: the driver
// over the real module exits 0.
func TestRealModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var out, errOut strings.Builder
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Fatalf("bwlint ./... exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.String() != "" {
		t.Errorf("expected no output, got:\n%s", out.String())
	}
}
