# Development workflow for kronbip.  Pure Go 1.22+, no dependencies.
#
#   make            - vet (incl. a gofmt gate) + build + full test suite
#   make race       - race-detector pass over the concurrent packages
#   make bench      - streaming + engine benchmarks
#   make bench-json - same benchmarks as a dated BENCH_<date>.json record
#   make bench-check- compare the last two BENCH_<date>.json records
#   make bench-trend- bench-check plus per-family delta roll-up
#   make serve-smoke- end-to-end smoke test of the kronbip serve service
#   make distgen-smoke - distributed generation smoke: 3-replica fleet + dist-gen
#   make fuzz       - bounded fuzzing of the edge-range walkers (30 s)
#   make check      - everything (what CI should run)

GO ?= go
# Timestamped so multiple same-day records coexist; 'T' sorts after '.'
# so a BENCH_<date>T<time>.json always follows a plain BENCH_<date>.json
# baseline in benchcheck's lexical ordering.
BENCH_DATE := $(shell date +%Y-%m-%dT%H%M%S)

# Packages with nontrivial concurrency: everything scheduled on the
# internal/exec engine plus the engine itself, the obs registry the
# instrumented paths hammer concurrently, and the serve job manager.
RACE_PKGS = ./internal/exec ./internal/core ./internal/count ./internal/grb ./internal/obs ./internal/obs/timeline ./internal/audit ./internal/serve ./internal/distgen

.PHONY: all vet build test race fuzz bench bench-json bench-check bench-trend serve-smoke distgen-smoke check

all: vet build test

# vet also fails on any tracked Go file gofmt would rewrite.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# fuzz runs FuzzEdgeRange — every range and block-range walker against
# the definition-order oracle — for a bounded time.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEdgeRange$$' -fuzztime 30s ./internal/core

bench:
	$(GO) test -run XXX -bench 'BenchmarkStream_' -benchtime 10x -benchmem .
	$(GO) test -bench . -benchtime 100x ./internal/exec
	$(GO) test -run XXX -bench 'BenchmarkServe' ./internal/serve
	$(GO) test -run XXX -bench 'BenchmarkStreamWire' -benchtime 10x ./internal/serve
	$(GO) test -run XXX -bench 'BenchmarkFlightRecorder' ./internal/obs
	$(GO) test -run XXX -bench 'BenchmarkDistGen' ./internal/distgen

# bench-json records the same runs in `go test -json` form, one dated
# file per day, for diffing throughput across PRs.
bench-json:
	{ $(GO) test -json -run XXX -bench 'BenchmarkStream_' -benchtime 10x -benchmem . ; \
	  $(GO) test -json -run XXX -bench . -benchtime 100x ./internal/exec ; \
	  $(GO) test -json -run XXX -bench 'BenchmarkServe' ./internal/serve ; \
	  $(GO) test -json -run XXX -bench 'BenchmarkStreamWire' -benchtime 10x ./internal/serve ; \
	  $(GO) test -json -run XXX -bench 'BenchmarkFlightRecorder' ./internal/obs ; \
	  $(GO) test -json -run XXX -bench 'BenchmarkDistGen' ./internal/distgen ; } > BENCH_$(BENCH_DATE).json
	@echo wrote BENCH_$(BENCH_DATE).json

# bench-check compares the two most recent records: 2x threshold for
# engine microbenchmarks (catches lost parallelism or accidental
# quadratic blowups, not machine-to-machine noise), a tight 1.2x for
# the BenchmarkStream_* and BenchmarkStreamWire* families — a >20%
# slide in the edge-streaming or wire-encoding hot paths fails the
# build — and 1.5x for BenchmarkServe* (HTTP middleware
# per-request cost and per-job attribution overhead) and BenchmarkDistGen*
# (the dist-gen coordinator's parse/verify/merge path).  Results under the
# 500ns noise floor never fail: nanosecond ops at -benchtime 100x
# measure scheduler jitter, not the code.  Passes trivially with fewer
# than two records.  bench-trend wraps the same comparison with a
# per-family delta roll-up (scripts/bench_trend.sh); CI runs the trend
# non-blocking since its records span machines.
bench-check:
	$(GO) run ./cmd/benchcheck -dir .

bench-trend:
	scripts/bench_trend.sh

# serve-smoke runs the full service acceptance flow against a live
# server: submit → poll → stream, streamed count vs /v1/truth closed
# form, 429 backpressure, metrics, and a clean SIGINT drain.
serve-smoke:
	scripts/serve_smoke.sh

# distgen-smoke runs distributed generation against a live 3-replica
# fleet: dist-gen merges the leased blocks, the merged total matches
# the /v1/truth closed form, the run's request id correlates the lease
# traffic across every replica's access log, and a re-run is
# byte-identical.
distgen-smoke:
	scripts/distgen_smoke.sh

check: vet build test race serve-smoke distgen-smoke
