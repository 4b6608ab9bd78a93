# Development targets for the dynbw reproduction.

GO ?= go

.PHONY: all build test lint race zeroalloc bench bench-round bench-all dynbench fuzz load loc experiments examples cover clean

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Project-specific static analysis (cost-measure and concurrency
# invariants); exits non-zero on any finding.
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
# them runs the per-slot byte budget of a 100k-slot table (DESIGN §8).
zeroalloc:
	$(GO) test -count=1 -run 'ZeroAllocs?$$|AllocatesNothing|TickBoundedLiveState|SlotsActiveSet|LowTrackerFollowsItsHull|SlotBytes' ./internal/...

# The root micro-benchmarks of the building blocks (bench_test.go), for
# use while working on one of them. Performance claims rest on the
# repository benchmark (benchmarks/README.md), not on this suite.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One allocation round of a 100k-slot, 8-shard gateway, called directly
# (no tick channel, no sockets), idle and with 40, 1000 and 100 000 slots
# active: the place to bisect a change in what a round costs. ns/round
# leaves out the feeding; idle and 40 run on the tick loop, the other two
# fan out to the tick workers. live_B/slot is the table's live heap after
# the run: about 125 B a slot, 155 B in the dense case, whose round
# scratch has grown to every slot (2 vCPU Xeon, go1.24).
bench-round:
	$(GO) test -run '^$$' -bench 'BenchmarkRound' -benchmem ./internal/gateway/

# One short untraced pass each of the repository benchmark's sparse
# 100k-slot workload (the round path) and its batch-1k workload (the
# batched wire path under a running clock). They are correctness runs, not
# measurements: a pass fails unless every bit sent was served, nothing is
# left queued, Close() agrees with the per-session sweep, and (manual
# clock) MaxDelay <= 2*D_O.
dynbench:
	$(GO) run ./benchmarks/dynbench -workload sparse-100k -seconds 2 -trace 0
	$(GO) run ./benchmarks/dynbench -workload batch-1k -seconds 2 -trace 0

# Every package's benchmarks.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Short fuzzing pass over every parser/decoder.
fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=10s ./internal/trace/
	$(GO) test -fuzz=FuzzReadMultiCSV -fuzztime=10s ./internal/trace/
	$(GO) test -fuzz=FuzzHandleMessage -fuzztime=10s ./internal/gateway/

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
# targets: internal/lint <= 2,500 (PR 22, bwlint's diet); internal/load
# <= 900, cmd/bwload <= 240, cmd/bwgateway <= 340 and the total <= 21,600
# (PR 24, the one load engine).
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs wc -l | awk ' \
		$$2 != "total" { \
			n = split($$2, p, "/"); key = n > 2 ? p[2] : "."; \
			if (n > 3 && (key == "internal" || key == "cmd")) key = key "/" p[3]; \
			sum[key] += $$1; total += $$1 } \
		END { for (k in sum) printf "%6d  %s\n", sum[k], k | "sort -rn"; close("sort -rn"); \
			printf "%6d  total\n", total }'

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
