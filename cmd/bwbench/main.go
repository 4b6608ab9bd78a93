// Command bwbench regenerates the paper's figures and the per-theorem
// validation experiments (DESIGN.md §4). It prints each experiment's table
// as markdown and can optionally write markdown/CSV files per experiment.
//
// Usage:
//
//	bwbench                  # run every deterministic experiment, print markdown
//	bwbench -run E3,E7       # run a subset
//	bwbench -run E21         # run the wall-clock gateway soak (non-golden)
//	bwbench -live            # include wall-clock experiments in the full run
//	bwbench -list            # list the experiment registry
//	bwbench -out results/    # also write results/<ID>.md and .csv
//	bwbench -j 4             # fan sweep points across 4 workers (same output bytes)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dynbw/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwbench", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list experiments and exit")
		runIDs   = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		outDir   = fs.String("out", "", "directory to write per-experiment .md and .csv files")
		quiet    = fs.Bool("quiet", false, "suppress table output (timings only)")
		parallel = fs.Bool("parallel", false, "run experiments concurrently (output stays ordered)")
		live     = fs.Bool("live", false, "also include the wall-clock experiments (E21); their tables vary run to run")
		workers  = fs.Int("j", 0, "worker goroutines per sweep (0 = GOMAXPROCS); output is identical for every value")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	harness.SetParallelism(*workers)

	all := harness.All()
	if *live {
		all = append(all, harness.Live()...)
	}
	if *list {
		if !*live {
			all = append(all, harness.Live()...)
		}
		for _, e := range all {
			fmt.Fprintf(out, "%-5s %-45s reproduces %s\n", e.ID, e.Title, e.Reproduces)
		}
		return nil
	}

	selected := all
	if *runIDs != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
	}

	type outcome struct {
		table   *harness.Table
		elapsed time.Duration
		err     error
	}
	outcomes := make([]outcome, len(selected))
	runOne := func(i int) {
		start := time.Now()
		tb, err := selected[i].Run()
		outcomes[i] = outcome{table: tb, elapsed: time.Since(start).Round(time.Millisecond), err: err}
	}
	if *parallel {
		var wg sync.WaitGroup
		for i := range selected {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runOne(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range selected {
			runOne(i)
		}
	}

	for i, e := range selected {
		oc := outcomes[i]
		if oc.err != nil {
			return fmt.Errorf("%s: %w", e.ID, oc.err)
		}
		if *quiet {
			fmt.Fprintf(out, "%s: %d rows in %v\n", e.ID, len(oc.table.Rows), oc.elapsed)
		} else {
			fmt.Fprintln(out, oc.table.Markdown())
		}
		if *outDir != "" {
			base := filepath.Join(*outDir, strings.ToLower(e.ID))
			if err := os.WriteFile(base+".md", []byte(oc.table.Markdown()), 0o644); err != nil {
				return fmt.Errorf("%s: write md: %w", e.ID, err)
			}
			if err := os.WriteFile(base+".csv", []byte(oc.table.CSV()), 0o644); err != nil {
				return fmt.Errorf("%s: write csv: %w", e.ID, err)
			}
		}
	}
	return nil
}
