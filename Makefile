GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt build vet lint lint-json test race vpbench-test bench bench-gate bench-smoke bench-tracestore serve-smoke clean

# check is the CI gate: formatting, static analysis (go vet + the custom
# vplint suite), a full build, the test suite under the race detector
# (the tracestore tests exercise concurrent generation, eviction and
# singleflight dedup) and the benchmark module's vet and tests.
check: fmt vet lint build race vpbench-test

# fmt fails if gofmt would rewrite any Go file outside testdata (the lint
# fixtures there keep their layouts on purpose).
fmt:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' | xargs $(GOFMT) -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repository's five own analyzers (ctxlint, detlint,
# doclint, errlint, keyedlint — see DESIGN.md
# "Determinism contract & lint suite") over every package and fails on any
# diagnostic.
lint:
	$(GO) run ./cmd/vplint ./...

# lint-json writes the same diagnostics as a stable JSON report
# (vplint.json, schema documented in cmd/vplint) for CI artifacts and
# tooling; like lint, it exits non-zero if anything fires.
lint-json:
	$(GO) run ./cmd/vplint -json ./... > vplint.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vpbench-test vets and tests the benchmark module (vpbench/, its own
# go.mod, so ./... above does not reach it). It compiles against the
# internal machine, fetch and trace-store APIs and checks every table
# against its recorded digests, so an internal change that breaks the
# benchmark fails the gate.
vpbench-test:
	cd vpbench && $(GO) vet ./... && $(GO) test ./...

# bench runs every benchmark and writes the parsed report — ns/op, the
# simulated-instructions-per-second metric each benchmark reports, the
# derived workers=1 vs workers=max speedup of the execution engine and the
# streamed-over-flat fig3.1 ratio — to BENCH_pr26.json via cmd/benchjson
# (BENCH_pr3.json, BENCH_pr5.json, BENCH_pr6.json, BENCH_pr9.json,
# BENCH_pr16.json, BENCH_pr20.json, BENCH_pr21.json and BENCH_pr25.json are
# the committed earlier reports; bench-gate reads
# BENCH_pr9.json as its baseline, so bench never overwrites the
# regression reference). The raw `go test -bench` text still reaches the
# terminal. -gate makes the run fail outright if any parallel sweep is
# slower than its serial baseline beyond benchjson's noise floor, so a
# workers regression like PR 5's 0.92× can no longer land silently in a
# committed report, or if the streamed sweep costs more than 1.5× the
# flat one.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem . | $(GO) run ./cmd/benchjson -gate -o BENCH_pr26.json

# STREAM_MEM_BUDGET caps allocated bytes per streamed fig3.1 sweep
# (BenchmarkFig31Stream, 8 workloads × 100k instructions, 80 cells). The
# measured steady state is ~0.6 MB/op — the chunk pool plus per-cell
# windows — versus the ~51 MB the eight materialized traces alone would
# hold; 4 MB leaves headroom for allocator jitter while still failing
# loudly if any streamed consumer rematerializes its trace.
STREAM_MEM_BUDGET = BenchmarkFig31Stream=4000000

# bench-gate is the CI regression check: the workers and streaming sweeps,
# one iteration each, piped through benchjson — fails on any
# workers_speedup regression (slower than serial beyond the
# measurement-noise floor), on a speedup more than 10% below the committed
# BENCH_pr9.json baseline, on the streamed sweep costing more than 1.5×
# the flat one on one worker (stream_over_flat), or on the streamed sweep
# allocating past the absolute memory budget above.
bench-gate:
	$(GO) test -run='^$$' -bench='BenchmarkFig31Workers|BenchmarkFig31Stream' -benchtime=1x -benchmem . \
		| $(GO) run ./cmd/benchjson -gate -baseline BENCH_pr9.json -membudget '$(STREAM_MEM_BUDGET)' -o /dev/null

# bench-smoke is the CI variant: a single iteration of the core simulator
# benchmarks, piped through benchjson so the parser is exercised end to end,
# without committing the (machine-dependent) numbers anywhere.
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkPipeline$$|BenchmarkTraceStore$$|BenchmarkIdealMachine$$' \
		-benchtime=1x . | $(GO) run ./cmd/benchjson -o /dev/null

# serve-smoke boots cmd/vpserve on a free port, curls the health check and
# one small figure, diffs the served table against the vpsim rendering of
# the same run, and requires a clean graceful-drain exit on SIGTERM.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# bench-tracestore measures the trace cache's hit vs miss path cost.
bench-tracestore:
	$(GO) test -bench=BenchmarkTraceStore -run=^$$ .

clean:
	$(GO) clean ./...
