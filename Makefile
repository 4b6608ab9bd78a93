# Development targets for the dynbw reproduction.

GO ?= go

.PHONY: all build test lint race bench bench-compare bench-all fuzz load experiments examples cover clean

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

# Run the root benchmark suite at a fixed benchtime and record parsed
# ns/op, B/op, allocs/op and rows/op in BENCH_<PR>.json for regression
# tracking across PRs. BENCH_PR picks the artifact suffix; -short keeps
# the wall-clock TCP soak out of the tracked numbers.
BENCH_PR ?= 10
bench:
	$(GO) run ./cmd/bwbench -benchjson BENCH_$(BENCH_PR).json -benchtime 200ms -short

# Diff the current PR's artifact against the previous one; exits
# non-zero on >10% ns/op or any allocs/op regression (see
# bwbench -compare for cross-machine tolerance flags).
bench-compare:
	$(GO) run ./cmd/bwbench -compare BENCH_8.json BENCH_$(BENCH_PR).json

# The old behaviour (every package's benchmarks, no artifact).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Short fuzzing pass over every parser/decoder.
fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=10s ./internal/trace/
	$(GO) test -fuzz=FuzzReadMultiCSV -fuzztime=10s ./internal/trace/
	$(GO) test -fuzz=FuzzHandleMessage -fuzztime=10s ./internal/gateway/

# Wall-clock load test of the live path (also: go run ./cmd/bwload -h).
load:
	$(GO) run ./cmd/bwload -sessions 256 -duration 2s -policy phased,continuous,combined

# Regenerate every table/figure into results/.
experiments:
	$(GO) run ./cmd/bwbench -parallel -out results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/videostream
	$(GO) run ./examples/ispgateway
	$(GO) run ./examples/billing

cover:
	$(GO) test -cover ./internal/...

clean:
	rm -rf results
