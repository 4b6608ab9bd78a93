// Command dynbench is the repository's benchmark: six workloads that
// load a gateway hosted in a child process over loopback TCP, or the
// simulator in-process, and report end-to-end metrics (untraced pass)
// and per-layer metrics (traced pass). benchmarks/README.md describes
// the workloads, the metrics and what is expected to move what.
//
//	dynbench                         every workload, untraced; report to benchmarks/out/report.json
//	dynbench -trace 1                ... and the traced pass: layer table and benchmarks/out/spans.json
//	dynbench -sets 3                 three full sets and each metric's spread across them
//	dynbench -compare a.json b.json  apply BENCHMARK.json's bounds to two reports
//	dynbench -workload W -seed N -seconds S -trace 0|1
//	                                 one pass of one workload; the last line of
//	                                 standard output is the result as one JSON object
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// passTimeout bounds one pass of one workload; the context it cancels
// kills the gateway child, which unblocks everything waiting on it.
const passTimeout = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one pass of this workload and print the result as the last line (default: every workload)")
		seed    = fs.Uint64("seed", 1, "seed of the generated inputs")
		seconds = fs.Float64("seconds", 10, "length of the measured phase of each workload")
		trace   = fs.Int("trace", 0, "1: the traced pass (per-layer metrics, span file)")
		sets    = fs.Int("sets", 1, "full sets to run back to back")
		compare = fs.Bool("compare", false, "compare two reports: dynbench -compare base.json head.json")
		out     = fs.String("out", "benchmarks/out", "directory for report.json and spans.json")
		specAt  = fs.String("spec", "BENCHMARK.json", "the benchmark's metric bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dynbench:", err)
		return 1
	}
	if *seconds <= 0 || *sets < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("want -seconds > 0, -sets >= 1, -trace 0 or 1"))
	}
	if *sets > 1 && *name != "" {
		return fail(fmt.Errorf("-sets repeats every workload; it does not go with -workload"))
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1}

	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two report files"))
		}
		spec, err := readSpec(*specAt)
		if err != nil {
			return fail(err)
		}
		base, err := readReport(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		head, err := readReport(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if compareReports(stdout, spec, base, head) {
			return 1
		}
		return 0
	}

	rep := newReport(o)
	writeHeader(stdout, rep)
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		res, spans, err := runPass(ctx, w, o)
		if err != nil {
			return fail(err)
		}
		var layers Result
		if o.trace {
			var layerSpans spanFile
			if layers, layerSpans, err = layersSection(o); err != nil {
				return fail(err)
			}
			setSelfTime(w, &res, layers)
			if err := writeSpans(*out+"/spans.json", []spanFile{spans, layerSpans}); err != nil {
				return fail(err)
			}
		}
		writeResult(stdout, res)
		if o.trace {
			writeResult(stdout, layers)
		}
		line, err := contractLine(w, res, layers)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, line)
		if !res.Correct() {
			return 1
		}
		return 0
	}

	ok := true
	for i := 0; i < *sets; i++ {
		var set []Result
		for _, w := range workloads {
			untraced := o
			untraced.trace = false
			res, _, err := runPass(ctx, w, untraced)
			if err != nil {
				return fail(err)
			}
			writeResult(stdout, res)
			set = append(set, res)
			ok = ok && res.Correct()
		}
		rep.Sets = append(rep.Sets, set)
	}
	if o.trace {
		layers, layerSpans, err := layersSection(o)
		if err != nil {
			return fail(err)
		}
		var files []spanFile
		for _, w := range workloads {
			res, spans, err := runPass(ctx, w, o)
			if err != nil {
				return fail(err)
			}
			setSelfTime(w, &res, layers)
			writeResult(stdout, res)
			rep.Layers = append(rep.Layers, res)
			files = append(files, spans)
			ok = ok && res.Correct()
		}
		writeResult(stdout, layers)
		rep.Layers = append(rep.Layers, layers)
		if err := writeSpans(*out+"/spans.json", append(files, layerSpans)); err != nil {
			return fail(err)
		}
	}
	if *sets > 1 {
		spec, err := readSpec(*specAt)
		if err != nil {
			return fail(err)
		}
		if writeSetSpread(stdout, spec, rep) {
			ok = false // the sets do not repeat within the benchmark's own bounds
		}
	}
	if err := writeReport(*out+"/report.json", rep); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\nreport: %s/report.json\n", *out)
	if !ok {
		return 1
	}
	return 0
}

// runPass runs one pass of one workload: untraced for the end-to-end
// metrics, traced for the per-layer metrics and the spans.
func runPass(ctx context.Context, w workload, o runOpts) (Result, spanFile, error) {
	ctx, cancel := context.WithTimeout(ctx, passTimeout)
	defer cancel()
	w = w.scaled(o)
	switch {
	case w.kind == kindSim && o.trace:
		return traceSim(w, o)
	case w.kind == kindSim:
		res, err := runSim(w, o)
		return res, spanFile{}, err
	case o.trace:
		return traceGateway(ctx, w, o)
	}
	res, err := runGateway(ctx, w, o)
	return res, spanFile{}, err
}
