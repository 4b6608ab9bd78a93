// Command bwlint runs the project's static-analysis suite
// (internal/lint) over module packages and reports invariant
// violations.
//
// Usage:
//
//	bwlint [-checks list] [-github] [-list] [-v] [patterns ...]
//
// Patterns are package directories relative to the module root, with
// "./..." expansion; the default is the whole module. Output is text
// (file:line:col), or with -github ::error workflow-command annotations
// so findings surface inline on pull requests. -v prints load/analysis
// timing and each check's escape-hatch statistics to stderr. The exit
// code is 0 when clean, 1 when findings were reported, 2 on usage or
// load errors — so CI can gate merges on `go run ./cmd/bwlint ./...`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynbw/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams so the driver is testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bwlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		checksFlag = fs.String("checks", "", "comma-separated check names to run (default: all)")
		githubFlag = fs.Bool("github", false, "emit findings as GitHub ::error workflow commands instead of text")
		listFlag   = fs.Bool("list", false, "list available checks and exit")
		verbose    = fs.Bool("v", false, "print timing and check statistics to stderr")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bwlint [-checks list] [-github] [-list] [-v] [patterns ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	checks := lint.Checks()
	if *listFlag {
		for _, c := range checks {
			fmt.Fprintf(stdout, "%-18s %s\n", c.Name(), c.Doc())
		}
		return 0
	}
	checks, err := lint.Select(checks, *checksFlag)
	if err != nil {
		fmt.Fprintln(stderr, "bwlint:", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "bwlint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "bwlint:", err)
		return 2
	}

	// One load serves every check; -v reports how the wall clock split
	// between type-checking and analysis.
	loadStart := time.Now()
	prog, err := lint.LoadProgram(root, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "bwlint:", err)
		return 2
	}
	loadDur := time.Since(loadStart)
	checkStart := time.Now()
	findings := lint.RunProgram(prog, checks)
	checkDur := time.Since(checkStart)

	if *verbose {
		fmt.Fprintf(stderr, "bwlint: loaded %d packages in %v, ran %d checks in %v: %d finding(s)\n",
			len(prog.Pkgs), loadDur.Round(time.Millisecond), len(checks),
			checkDur.Round(time.Millisecond), len(findings))
		for _, c := range checks {
			if s, ok := c.(lint.Stater); ok {
				fmt.Fprintf(stderr, "bwlint: %s: %s\n", c.Name(), s.Stats())
			}
		}
	}

	for _, f := range findings {
		if *githubFlag {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::[%s] %s\n",
				relPath(root, f.File), f.Line, f.Col, f.Check, githubEscape(f.Message))
		} else {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// relPath renders a finding's file path relative to the module root,
// slash-separated, as the workflow-command parser expects; a path
// outside the root is returned unchanged.
func relPath(root, file string) string {
	rel, err := filepath.Rel(root, file)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return file
	}
	return filepath.ToSlash(rel)
}

// githubEscaper encodes the characters the workflow-command parser
// treats as delimiters in the message data portion.
var githubEscaper = strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")

func githubEscape(s string) string { return githubEscaper.Replace(s) }
