# Development targets for the dynbw reproduction.

GO ?= go

.PHONY: all build test lint race zeroalloc bench bench-round bench-round-pairs bench-all dynbench fuzz load loc loc-check experiments examples cover clean

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
# receive nothing, the shape of dense-100k's median round; and burst: a
# whole dense-100k cycle, every slot bursting once every D_O rounds, with
# the median and 90th percentile of the rounds that drain it
# (p50_ns/round, p90_ns/round). The place to bisect a change in what a
# round costs. ns/round leaves out the feeding (and drain's and burst's
# feeding rounds) and averages the gateway's timed rounds (1 in 13, its
# own round profile) with the untimed ones, which read no clock; idle and 40 run on the tick loop, 1000, 100 000 and
# drain fan out to the tick workers, burst does both. live_B/slot is the
# table's live heap, measured on the first run of each -count against a
# heap taken before any gateway was built: about 130 B a slot, 160 B in
# the dense case, whose round scratch has grown to every slot (2 vCPU
# Xeon, go1.24); the table opens no session, so it includes the 8 B
# owner word of each free slot and no ownership beyond it.
bench-round:
	$(GO) test -run '^$$' -bench 'BenchmarkRound' -benchmem ./internal/gateway/

# A benchmark at two revisions, in alternating pairs on one box: the
# test binary of PKG (./internal/gateway/ unless set) is built from `git
# archive $(BASE)` under $TMPDIR and from the working tree, the two
# binaries' BENCH runs (BenchmarkRound unless set) alternate N times
# (base first), and each case's ns/... figures (BenchmarkRound's
# ns/round, and burst's p50 and p90; BenchmarkBatchFrames' ns/op) are
# printed as the two medians,
# their ratio, the range of the pairs' own ratios and the pairs in which
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
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) test -c -o "$$tmp/base.test" $(PKG)); \
	$(GO) test -c -o "$$tmp/head.test" $(PKG); \
	echo "$(PKG) $(BENCH), $(N) alternating pairs: base $(BASE), head the working tree"; \
	for i in $$(seq $(N)); do for side in base head; do \
		"$$tmp/$$side.test" -test.run '^$$' -test.bench '$(BENCH)' -test.timeout 30m $(BENCHFLAGS) | \
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
# targets: internal/lint <= 1,760 (bwlint keeps three checks); internal/load
# <= 900, cmd/bwload <= 240, cmd/bwgateway <= 340 and the total <= 21,600
# (PR 24, the one load engine); internal/core <= 1,650 (PR 30).
# internal/gateway <= 2,360 (the shard is the only partition).
# internal/obs <= 1,562 (one instrument of each kind, striped by a count).
# Two are missed: internal/gateway reads 2,624 and internal/core 1,729.
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
		BEGIN { max["internal/lint"] = 1760; max["internal/load"] = 900; max["cmd/bwload"] = 240; \
			max["cmd/bwgateway"] = 340; max["internal/obs"] = 1562; max["total"] = 21600 } \
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
