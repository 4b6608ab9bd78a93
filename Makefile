# Development targets for the dynbw reproduction.

GO ?= go

.PHONY: all build test lint race zeroalloc bench bench-round bench-round-pairs dynbench-pairs bench-all dynbench fuzz load loc loc-check experiments examples cover clean

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Project-specific static analysis (the concurrency, unit and
# determinism invariants only a linter can check); exits non-zero on any
# finding.
lint:
	$(GO) run ./cmd/bwlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The hot paths' zero-allocation discipline, checked by running them:
# every testing.AllocsPerRun assertion, by name, without -race (its
# instrumentation allocates). DESIGN §7 maps hot paths to assertions; a
# new one joins that table and, if its name is new, this pattern. Beside
# them run the per-slot byte budget of a 100k-slot table and the sizes of
# the kernel's and the policies' per-slot records (DESIGN §8).
zeroalloc:
	$(GO) test -count=1 -run 'ZeroAllocs?$$|AllocatesNothing|TickBoundedLiveState|SlotsActiveSet|LowTrackerFollowsItsHull|SlotBytes|SlotRecordSizes' ./internal/...

# The root micro-benchmarks of the building blocks (bench_test.go), for
# use while working on one of them. Performance claims rest on the
# repository benchmark (benchmarks/README.md), not on this suite.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One allocation round of a 100k-slot, 8-shard gateway, called directly
# (no tick channel, no sockets), idle and with 40, 1000 and 100 000 slots
# active; drain: 3 500 scattered slots draining a burst over rounds that
# receive nothing, which the kernel serves by drain lines and visits only
# in the round their queues empty; burst: a whole dense-100k cycle,
# every slot bursting once every D_O rounds; and sparse: the same cycle
# over a rotating 1 %. drain, burst and sparse report the median and
# 90th percentile of their timed rounds (p50_ns/round, p90_ns/round),
# burst and sparse also the median of those with work
# (busy_p50_ns/round), since about half their rounds are idle and their
# p50 sits at the boundary. The place to bisect a change in what a
# round costs. ns/round leaves out the feeding (and the feeding rounds)
# and averages the gateway's timed rounds (1 in 13, its own round
# profile) with the untimed ones, which read no clock. Every round must
# take the path the known work selects: idle and 40 run on the tick
# loop, 1000 and 100 000 fan out to the tick workers, and drain, burst
# and sparse fan out only where the slots fed and the slots emptying
# reach 512. live_B/slot is the
# table's live heap, measured on the first run of each -count against a
# heap taken before any gateway was built: about 130 B a slot, 160 B in
# the dense case, whose round scratch has grown to every slot (2 vCPU
# Xeon, go1.24); the table opens no session, so it includes the 8 B
# owner word of each free slot and no ownership beyond it.
bench-round:
	$(GO) test -run '^$$' -bench 'BenchmarkRound' -benchmem ./internal/gateway/

# Both sides of a paired run are built (with -trimpath) and run from an
# exported tree under $TMPDIR: base from `git archive $(BASE)`, head
# from the working tree's files (tracked and untracked, less what
# .gitignore excludes and what is deleted), so the same source gives
# the same binary on both sides. A head built in the git checkout
# differed from its base (the VCS stamp, the directory it ran in): an
# A/A set on dense-100k read head lower in only 2 of 10 pairs.
EXPORT_SIDES = mkdir "$$tmp/base" "$$tmp/head"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	(git ls-files -co --exclude-standard; git ls-files -d) | sort | uniq -u | tar -cf - -T - | tar -x -C "$$tmp/head"

# A benchmark at two revisions, in alternating pairs on one box: the
# test binary of PKG (./internal/gateway/ unless set) is built from
# each side's exported tree (EXPORT_SIDES), the two binaries' BENCH runs
# (BenchmarkRound unless set) alternate N times (base first), each in
# its own tree's package directory, and each case's ns/... figures
# (BenchmarkRound's ns/round, and burst's p50 and p90;
# BenchmarkBatchFrames' ns/op) are printed as the two medians, their
# ratio, the range of the pairs' own ratios and the pairs in which
# head was lower. A claim about a round's or a frame's cost rests on
# this, not on one run: absolute figures move by the day and by the
# neighbours on a shared box. A case only head has is printed with
# head's median alone. BENCHFLAGS passes more flags to both binaries,
# e.g. BENCHFLAGS="-test.bench='BenchmarkRound/(drain|burst)'" to run
# two cases (a later -test.bench wins; make expands a `$`, so an anchor
# is written `$$`: BENCHFLAGS="-test.bench='BenchmarkRound/(idle|drain)$$'"); BENCH=BenchmarkBatchFrames pairs
# the wire path, and PKG=. BENCH='BenchmarkRunnerReuse$' a one-session
# simulator run (the root package's bench_test.go).
BASE ?= HEAD
N ?= 10
PKG ?= ./internal/gateway/
BENCH ?= BenchmarkRound
BENCHFLAGS ?=
bench-round-pairs:
	@set -e; tmp=$$(mktemp -d "$${TMPDIR:-/tmp}/bench-round-pairs.XXXXXX"); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(EXPORT_SIDES); \
	for side in base head; do (cd "$$tmp/$$side" && $(GO) test -c -trimpath -o "$$tmp/$$side.test" $(PKG)); done; \
	echo "$(PKG) $(BENCH), $(N) alternating pairs: base $(BASE), head the working tree"; \
	for i in $$(seq $(N)); do for side in base head; do \
		(cd "$$tmp/$$side/$(PKG)" && "$$tmp/$$side.test" -test.run '^$$' -test.bench '$(BENCH)' -test.timeout 30m $(BENCHFLAGS)) | \
		awk -v side=$$side -v pair=$$i '/^Benchmark/ { \
			for (f = 3; f < NF; f++) if ($$(f+1) ~ /ns\//) print side, pair, $$1, $$(f+1), $$f }'; \
	done; done > "$$tmp/runs"; \
	awk ' \
		function median(key, side,   n, i, j, v, a) { \
			for (i = 1; i <= $(N); i++) if ((key, side, i) in val) a[++n] = val[key, side, i]; \
			for (i = 2; i <= n; i++) { v = a[i]; for (j = i - 1; j > 0 && a[j] > v; j--) a[j+1] = a[j]; a[j+1] = v; } \
			return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2; } \
		{ key = $$3 " " $$4; val[key, $$1, $$2] = $$5; if (!(key in seen)) { seen[key] = 1; order[++nkeys] = key; } } \
		END { printf "%-34s %-14s %12s %12s %7s %-13s %s\n", "case", "metric", "base", "head", "ratio", "pair ratios", "head lower"; \
			for (k = 1; k <= nkeys; k++) { key = order[k]; lower = 0; pairs = 0; lo = 0; hi = 0; \
				for (p = 1; p <= $(N); p++) if (((key, "base", p) in val) && ((key, "head", p) in val)) { \
					x = val[key, "head", p] / val[key, "base", p]; if (!pairs || x < lo) lo = x; if (!pairs || x > hi) hi = x; \
					pairs++; if (x < 1) lower++; } \
				b = median(key, "base"); h = median(key, "head"); split(key, kc, " "); \
				if (pairs) printf "%-34s %-14s %12.0f %12.0f %7.3f %.2f..%.2f    %d of %d\n", kc[1], kc[2], b, h, h / b, lo, hi, lower, pairs; \
				else printf "%-34s %-14s %12s %12.0f %7s %-13s (head only)\n", kc[1], kc[2], "-", h, "-", "-"; } }' "$$tmp/runs"

# The repository benchmark's workload W at two revisions, in alternating
# pairs on one box: the end-to-end twin of bench-round-pairs. dynbench is
# built from each side's exported tree (EXPORT_SIDES), and the two
# binaries' `-workload $(W) -trace 0 -seed $(SEED) -seconds $(SECONDS)`
# runs alternate N times, the side that runs first swapping from pair
# to pair (base first in odd pairs), each in its own tree with its own
# BENCHMARK.json. A warm-up pair runs first and is not counted: the
# first run of a set read slowest in each of three A/A sets on
# dense-100k, and it was always base's. Each run's last line, the JSON
# result, is read with awk; for every end-to-end metric of
# BENCHMARK.json the table prints each side's median and quartiles, the
# pairs head won by the metric's `better` (ties count for neither), and
# each pair's two values, then each side's failed operations and runs
# that were not correct. A gain is claimed when head wins nine pairs in
# ten and the medians differ by more than base's quartile spread. It
# changes nothing under benchmarks/; the benchmark's own paired mode,
# when it lands, replaces this target. E.g.
# `TMPDIR=<scratch dir> make dynbench-pairs BASE=<parent rev> W=live-100k`.
W ?=
SEED ?= 1
SECONDS ?= 10
dynbench-pairs:
	@set -e; test -n "$(W)" || { echo "usage: make dynbench-pairs BASE=<rev> W=<workload> [N=10 SEED=1 SECONDS=10]" >&2; exit 2; }; \
	tmp=$$(mktemp -d "$${TMPDIR:-/tmp}/dynbench-pairs.XXXXXX"); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(EXPORT_SIDES); \
	for side in base head; do (cd "$$tmp/$$side" && $(GO) build -trimpath -o "$$tmp/$$side.dynbench" ./benchmarks/dynbench); done; \
	echo "$(W), $(N) alternating pairs, seed $(SEED), $(SECONDS) s: base $(BASE), head the working tree"; \
	for i in $$(seq 0 $(N)); do \
		if [ $$((i % 2)) = 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			(cd "$$tmp/$$side" && "$$tmp/$$side.dynbench" -workload $(W) -trace 0 -seed $(SEED) -seconds $(SECONDS) \
				-out "$$tmp/out" >"$$tmp/log" 2>&1) || true; \
			[ $$i = 0 ] || echo "$$side $$i $$(tail -n 1 "$$tmp/log")"; \
		done; \
	done > "$$tmp/runs"; \
	awk ' \
		function sorted(m, side,   n, i, j, v) { n = 0; \
			for (i = 1; i <= $(N); i++) if ((m, side, i) in val) a[++n] = val[m, side, i]; \
			for (i = 2; i <= n; i++) { v = a[i]; for (j = i - 1; j > 0 && a[j] > v; j--) a[j+1] = a[j]; a[j+1] = v; } \
			return n; } \
		function q(n, p,   h, l) { h = (n - 1) * p + 1; l = int(h); return l < n ? a[l] + (h - l) * (a[l+1] - a[l]) : a[l]; } \
		function summary(m, side,   n) { n = sorted(m, side); \
			return n ? sprintf("%.4g [%.4g, %.4g]", q(n, 0.5), q(n, 0.25), q(n, 0.75)) : "-"; } \
		FNR == NR { if (/"end_to_end"/) e = 1; else if (/"per_layer"/) e = 0; \
			if (e && /"name"/) { name = $$2; gsub(/[",]/, "", name); } \
			if (e && /"better"/) { b = $$2; gsub(/[",]/, "", b); better[name] = b; order[++nm] = name; } \
			next; } \
		{ side = $$1; runs[side]++; \
			if (!match($$0, /"failed":[0-9]+/)) { broken[side]++; next; } \
			failed[side] += substr($$0, RSTART + 9, RLENGTH - 9); \
			if ($$0 !~ /"correct":true/) broken[side]++; \
			for (k = 1; k <= nm; k++) if (match($$0, "\"" order[k] "\":\\{\"value\":[-+0-9.eE]+")) { \
				v = substr($$0, RSTART, RLENGTH); sub(/.*:/, "", v); val[order[k], side, $$2] = v + 0; } } \
		END { printf "%-18s %-7s %-30s %-30s %s\n", "metric", "better", "base p50 [q1, q3]", "head p50 [q1, q3]", "head won"; \
			for (k = 1; k <= nm; k++) { m = order[k]; won = 0; pairs = 0; list = ""; \
				for (p = 1; p <= $(N); p++) if (((m, "base", p) in val) && ((m, "head", p) in val)) { \
					bv = val[m, "base", p]; hv = val[m, "head", p]; pairs++; list = list sprintf(" %.4g/%.4g", bv, hv); \
					if (better[m] == "lower" ? hv < bv : hv > bv) won++; } \
				printf "%-18s %-7s %-30s %-30s %d of %d\n", m, better[m], summary(m, "base"), summary(m, "head"), won, pairs; \
				printf "  pairs base/head:%s\n", list; } \
			for (s = 1; s <= 2; s++) { side = s == 1 ? "base" : "head"; \
				printf "%s: %d failed operations in %d runs, %d runs not correct\n", side, failed[side], runs[side], broken[side]; } }' \
		BENCHMARK.json "$$tmp/runs"

# One short untraced pass each of the repository benchmark's sparse
# 100k-slot workload (the round path), its batch-1k workload (the batched
# wire path under a running clock), its live-100k workload (the same
# path on 8 shards, DATA and STATS grouped per shard) and its dense-100k
# workload (the round path with every slot busy). They are correctness
# runs, not measurements: a pass fails unless every bit sent was served,
# nothing is left queued, Close() agrees with the per-session sweep, and
# (manual clock) MaxDelay <= 2*D_O.
dynbench:
	$(GO) run ./benchmarks/dynbench -workload sparse-100k -seconds 2 -trace 0
	$(GO) run ./benchmarks/dynbench -workload batch-1k -seconds 2 -trace 0
	$(GO) run ./benchmarks/dynbench -workload live-100k -seconds 2 -trace 0
	$(GO) run ./benchmarks/dynbench -workload dense-100k -seconds 2 -trace 0

# Every package's benchmarks.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Short fuzzing pass over every parser/decoder. Minimizing a new
# interesting input is capped at 1 s: at the default 60 s a pass of
# FuzzHandleMessage spent its last 7 of 10 s minimizing one input and
# executed nothing (CI runs the same three lines).
fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=10s -fuzzminimizetime=1s ./internal/trace/
	$(GO) test -fuzz=FuzzReadMultiCSV -fuzztime=10s -fuzzminimizetime=1s ./internal/trace/
	$(GO) test -fuzz=FuzzHandleMessage -fuzztime=10s -fuzzminimizetime=1s ./internal/gateway/

# Wall-clock load test of the live path (also: go run ./cmd/bwload -h):
# the swarm, a connection per session, against each policy; then the
# same engine 64 sessions to a connection with the keep-warm workload,
# the shape that holds 100k sessions (README "Scaling").
load:
	$(GO) run ./cmd/bwload -sessions 256 -duration 2s -policy phased,continuous,combined
	$(GO) run ./cmd/bwload -sessions 4096 -perconn 64 -mode hold -rate 1 -tick 20ms -duration 3s -shards 4 -gwtick 5ms

# Non-test Go lines per package (testdata and sub-packages counted with
# their parent), largest first, then the total: the table ROADMAP's
# baseline and the "lines fall" criteria of simplicity PRs quote. Standing
# targets: internal/lint <= 1,760 (bwlint keeps three checks); cmd/bwload
# <= 240 (the one load engine); internal/core <= 1,650.
# internal/gateway <= 2,360 (the shard is the only partition).
# internal/obs <= 1,562 (one instrument of each kind, striped by a count).
# internal/load <= 895, cmd/bwgateway <= 280, internal/sim <= 1,171,
# internal/trace <= 448, internal/bw <= 372 and the total <= 20,421 (one
# hosting path, no exported name without a caller).
# Two are missed: internal/gateway reads 2,630 and internal/core 1,703.
# loc-check fails when a package passes one of the others, or one of them
# is missing from the table.
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs wc -l | awk ' \
		$$2 != "total" { \
			n = split($$2, p, "/"); key = n > 2 ? p[2] : "."; \
			if (n > 3 && (key == "internal" || key == "cmd")) key = key "/" p[3]; \
			sum[key] += $$1; total += $$1 } \
		END { for (k in sum) printf "%6d  %s\n", sum[k], k | "sort -rn"; close("sort -rn"); \
			printf "%6d  total\n", total }'

loc-check:
	@$(MAKE) -s --no-print-directory loc | awk ' \
		BEGIN { max["internal/lint"] = 1760; max["internal/load"] = 895; max["cmd/bwload"] = 240; \
			max["cmd/bwgateway"] = 280; max["internal/obs"] = 1562; max["internal/sim"] = 1171; \
			max["internal/trace"] = 448; max["internal/bw"] = 372; max["total"] = 20421 } \
		$$2 in max { seen[$$2] = 1; if ($$1 > max[$$2]) { \
			printf "loc-check: %s reads %d lines, target %d\n", $$2, $$1, max[$$2]; bad = 1 } } \
		END { for (k in max) if (!(k in seen)) { printf "loc-check: no %s in the table\n", k; bad = 1 } \
			exit bad }'

# Regenerate every table/figure into results/, the wall-clock E21 too
# (a plain go test compares the deterministic ones with their goldens).
experiments:
	$(GO) test -count=1 ./internal/harness -run TestGoldenResults -update

# The tested walk-through of the paper's three settings (example_test.go).
examples:
	$(GO) test -count=1 -run '^Example$$' -v .

cover:
	$(GO) test -cover ./internal/...

clean:
	rm -rf results
