# Development workflow for kronbip.  Pure Go 1.22+, no dependencies.
#
#   make            - vet (incl. a gofmt gate and the perfbench module's
#                     vet and tests) + build + full test suite
#   make race       - race-detector pass over the concurrent packages
#   make bench      - streaming + engine benchmarks
#   make bench-json - same benchmarks as a dated BENCH_<date>.json record
#   make bench-check- compare the last two BENCH_<date>.json records
#   make bench-trend- bench-check plus per-family delta roll-up
#   make serve-smoke- end-to-end smoke test of the kronbip serve service
#   make distgen-smoke - distributed generation smoke: 3-replica fleet + dist-gen
#   make examples   - build and run every examples/* program
#   make fuzz       - bounded fuzzing of the edge-range walkers, the factor
#                     statistics pass, the bin run writer, the bin decoder,
#                     the text renderers, the edges endpoint's query string,
#                     the lease body, the job body and dist-gen's lease
#                     compare (30 s each)
#   make check      - everything (what CI should run)

GO ?= go
# Timestamped so multiple same-day records coexist; 'T' sorts after '.'
# so a BENCH_<date>T<time>.json always follows a plain BENCH_<date>.json
# baseline in benchcheck's lexical ordering.
BENCH_DATE := $(shell date +%Y-%m-%dT%H%M%S)

# Packages with nontrivial concurrency: everything scheduled on the
# internal/exec engine plus the engine itself, the obs registry the
# instrumented paths hammer concurrently, and the serve job manager
# and walk cap.
RACE_PKGS = ./internal/exec ./internal/core ./internal/count ./internal/grb ./internal/obs ./internal/obs/timeline ./internal/audit ./internal/serve ./internal/distgen

.PHONY: all vet build test race fuzz bench bench-json bench-check bench-trend serve-smoke distgen-smoke examples check

all: vet build test

# vet also fails on any tracked Go file gofmt would rewrite, and vets
# and tests the perfbench module, which ./... does not reach, so a root
# API change cannot break the benchmark harness unseen.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# fuzz runs, each for a bounded time, FuzzEdgeRange — every range and
# block-range walker and the Σ◊ pricer against the definition-order
# oracle —,
# FuzzFactorStats — the factor statistics wedge pass against the
# internal/count oracles on graphs of up to 64 vertices —,
# FuzzRunFrames — the bin run writer over the run walk against PutFrame
# over the batch walk, on block × range windows stopped anywhere —,
# FuzzDecodeWire — the bin decoder against its pre-rewrite reference on
# arbitrary bytes, plus decode ∘ encode on ranges and lease blocks —,
# FuzzAppendText — AppendTSV and AppendNDJSON against their strconv
# oracle on any two int64 ids, prefix and spare capacity —,
# FuzzEdgesQuery — GET /v1/jobs/{id}/edges with arbitrary format,
# offset, limit and audit strings against the canonical walk —,
# FuzzLeaseBody — POST /v1/leases with arbitrary block coordinates,
# offset and format, or raw body bytes, against the block walk and its
# Σ◊ —, FuzzSubmitBody — raw POST /v1/jobs bodies and idempotency
# keys, GET /v1/truth factor, mode, seed, vertex and edge strings and
# GET /v1/stats with the same spec, against the locally built spec's
# edge count and point queries — and FuzzLeaseCompare — dist-gen's check
# of a lease body against its own encoding of the block, on a clean
# body with one edit (a byte flipped, inserted or deleted, the body cut
# short or extended), resumed at any frame boundary and read in reads
# of any size, against bytes.Equal and the frame boundaries.
# Minimizing a new input reruns the fuzz body for every candidate, so
# the targets with costly bodies cap it at 100 calls instead of the
# default minute, which would eat the whole budget.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEdgeRange$$' -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFactorStats$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRunFrames$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWire$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzAppendText$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/exec
	$(GO) test -run '^$$' -fuzz '^FuzzEdgesQuery$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzLeaseBody$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitBody$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzLeaseCompare$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/distgen

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
# per-request cost) and BenchmarkDistGen*
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

# examples builds each examples/* program into a temporary directory and
# runs it; a non-zero exit prints the program's output and fails.
examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for d in examples/*/; do \
	  name=$$(basename "$$d"); \
	  $(GO) build -o "$$tmp/$$name" "./$${d%/}" || exit 1; \
	  "$$tmp/$$name" > "$$tmp/$$name.out" 2>&1 || \
	  { cat "$$tmp/$$name.out" >&2; echo "examples/$$name failed" >&2; exit 1; }; \
	  echo "ok   examples/$$name"; \
	done

check: vet build test examples race serve-smoke distgen-smoke
