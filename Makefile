# Single source of the build/test/bench commands: CI (.github/workflows/
# ci.yml) and humans invoke the same targets.

GO ?= go

.PHONY: build test test-short test-race examples cover bench bench-smoke benchmark-smoke bench-baseline bench-check determinism scale-smoke profile staticcheck fmt fmt-check vet experiments apicompat hypotheses hypotheses-check

# The reduced figure set and scale the smoke/baseline/gate pipeline runs.
# Changing it requires regenerating the committed baseline (bench-baseline).
BENCH_SMOKE_ARGS = -fig 7,federation-scaleout,faults,elasticity,scale -jobs 60 -replicas 2

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The CI fast lane: tests shrink their workloads under -short.
test-short:
	$(GO) test -short ./...

# The race-detector lane: short workloads under -race. The
# internal/runner fan-out and the stage memo concurrent cells share
# through one job template are the concurrency-bearing paths this guards.
test-race:
	$(GO) test -race -short ./...

# Build every examples/* program into a temp dir and run each one from its
# own temp working directory (examples/telemetry writes its exports into
# the working directory), failing on the first non-zero exit. A run's
# output is printed only when it fails. CI's fast lane runs this.
examples:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for dir in examples/*/; do \
		name="$$(basename "$$dir")"; \
		$(GO) build -o "$$tmp/bin/$$name" "./$$dir"; \
		mkdir -p "$$tmp/run/$$name"; \
		if (cd "$$tmp/run/$$name" && "$$tmp/bin/$$name" > out.txt 2>&1); then \
			echo "ok   examples/$$name"; \
		else \
			cat "$$tmp/run/$$name/out.txt"; echo "FAIL examples/$$name"; exit 1; \
		fi; \
	done

# Per-package coverage over the short suite: coverage.out (the profile)
# plus coverage.txt (the per-function/per-package summary). CI's fast
# lane runs this and uploads both as the `coverage` artifact.
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out > coverage.txt
	@tail -n 1 coverage.txt

# Benchmark the figure harness (short workloads; drop -short for the full
# per-figure numbers).
bench:
	$(GO) test -short -run '^$$' -bench=. -benchmem .

# The CI benchmark smoke lane: the short runner + kernel benchmarks, then
# a reduced-scale experiment run writing BENCH_results.json so the perf
# trajectory accumulates per commit (see docs/BENCHMARKING.md).
# No pipe here: /bin/sh has no pipefail, and `... | tee` would mask a
# failing benchmark behind tee's exit status.
bench-smoke:
	$(GO) test -short -run '^$$' -bench 'BenchmarkFigureSetRunner|BenchmarkKernelChurn|BenchmarkEngineTextJob|BenchmarkTriangleStages|BenchmarkDispatcherRouting|BenchmarkFederationChurnRouting' -benchmem . > bench_smoke.txt
	cat bench_smoke.txt
	$(GO) run ./cmd/dias-experiments $(BENCH_SMOKE_ARGS) -bench-out BENCH_results.json > /dev/null

# The benchmark of record (BENCHMARK.json, benchmark/) is its own module,
# so `go build ./... && go test ./...` at the root never compiles it: a
# change to engine.Stage or engine.Record can break it with every other
# lane green. This builds and tests it against the tree, then drives all
# five workloads through the entry point BENCHMARK.json names (digest,
# conservation and payload oracles included; a smoke run takes a few
# seconds): figure-set and fed8-text cover the most of the program between
# them, stack-graph runs the triangle stages' payload, stack-spine the bare
# event spine, and stack-evict is the one that reaches Kill and the
# execution recycling behind it.
benchmark-smoke:
	cd benchmark && $(GO) test -short ./...
	bash benchmark/run.sh --workload figure-set --smoke
	bash benchmark/run.sh --workload fed8-text --smoke
	bash benchmark/run.sh --workload stack-graph --smoke
	bash benchmark/run.sh --workload stack-spine --smoke
	bash benchmark/run.sh --workload stack-evict --smoke

# Regenerate the committed bench-regression baseline (run on the machine
# class CI uses when the wall-clock gate matters; figure means are
# machine-independent). Commit the result.
bench-baseline:
	$(GO) run ./cmd/dias-experiments $(BENCH_SMOKE_ARGS) -bench-out docs/bench-baseline.json > /dev/null

# The CI bench-regression gate: fresh BENCH_results.json (from bench-smoke)
# vs the committed baseline. Thresholds in docs/BENCHMARKING.md. CI passes
# BENCH_CHECK_FLAGS="-min-wall-sec 2" so only figures heavy enough to be
# wall-stable are wall-gated across machine classes; figure means are
# machine-independent and always gated.
BENCH_CHECK_FLAGS ?=
bench-check:
	$(GO) run ./cmd/bench-check -baseline docs/bench-baseline.json -candidate BENCH_results.json $(BENCH_CHECK_FLAGS)

# Capture CPU and heap profiles from the figure-set benchmark (the
# profiles land in cpu.prof/mem.prof, gitignored). Inspect with
#   go tool pprof cpu.prof   /   go tool pprof mem.prof
# See docs/BENCHMARKING.md for the profiling workflow.
profile:
	$(GO) test -short -run '^$$' -bench BenchmarkFigureSetRunner -benchmem -cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

# The CI determinism lane: a reduced figure run twice, -workers 1 vs
# -workers 8, diffed byte for byte — the worker-count invariance guarantee
# as a pipeline check (faults covers the new injection layer). The second
# pair runs every driver traced (-fig all,table2, ~2 s a run) and also
# diffs the telemetry exports: the Perfetto trace, the event JSONL and the
# gauge timeline must be byte-identical at any worker count, not just the
# rendered figures.
determinism:
	$(GO) run ./cmd/dias-experiments -fig 7,faults -jobs 40 -workers 1 -bench-out '' > determinism-w1.txt
	$(GO) run ./cmd/dias-experiments -fig 7,faults -jobs 40 -workers 8 -bench-out '' > determinism-w8.txt
	cmp determinism-w1.txt determinism-w8.txt
	$(GO) run ./cmd/dias-experiments -fig all,table2 -jobs 40 -workers 1 -bench-out '' -trace determinism-w1.trace.json -events determinism-w1.events.jsonl -timeline determinism-w1.timeline.csv > determinism-traced-w1.txt
	$(GO) run ./cmd/dias-experiments -fig all,table2 -jobs 40 -workers 8 -bench-out '' -trace determinism-w8.trace.json -events determinism-w8.events.jsonl -timeline determinism-w8.timeline.csv > determinism-traced-w8.txt
	cmp determinism-traced-w1.txt determinism-traced-w8.txt
	cmp determinism-w1.trace.json determinism-w8.trace.json
	cmp determinism-w1.events.jsonl determinism-w8.events.jsonl
	cmp determinism-w1.timeline.csv determinism-w8.timeline.csv
	rm -f determinism-w1.txt determinism-w8.txt determinism-traced-w1.txt determinism-traced-w8.txt determinism-w1.trace.json determinism-w8.trace.json determinism-w1.events.jsonl determinism-w8.events.jsonl determinism-w1.timeline.csv determinism-w8.timeline.csv

# The CI streaming-scale smoke: the scale figure at 50k jobs (its heavy
# cells replay 50k arrivals each through an 8-cluster federation on the
# bounded-memory path), run at -workers 1 and 8 and byte-diffed — the
# figure text carries no wall-clock, so it must be identical — with the
# memory high-water ceiling asserted on both runs. The ceiling (MiB of
# Go-runtime Sys, a monotone RSS proxy) is ~3x the observed high-water
# (19 MiB at -workers 8, 11 MiB at -workers 1 since nobody-reads-it
# stages carry counts, not records; 755 MiB before); a per-job leak
# anywhere on the streaming path blows well past it.
SCALE_SMOKE_JOBS = 50000
SCALE_SMOKE_MAX_SYS_MB = 64
scale-smoke:
	$(GO) run ./cmd/dias-experiments -fig scale -jobs $(SCALE_SMOKE_JOBS) -workers 1 -bench-out '' -max-sys-mb $(SCALE_SMOKE_MAX_SYS_MB) > scale-smoke-w1.txt
	$(GO) run ./cmd/dias-experiments -fig scale -jobs $(SCALE_SMOKE_JOBS) -workers 8 -bench-out '' -max-sys-mb $(SCALE_SMOKE_MAX_SYS_MB) > scale-smoke-w8.txt
	cmp scale-smoke-w1.txt scale-smoke-w8.txt
	rm -f scale-smoke-w1.txt scale-smoke-w8.txt

# Static analysis beyond go vet (CI installs the pinned tool; locally:
# go install honnef.co/go/tools/cmd/staticcheck@latest).
staticcheck:
	staticcheck ./...

# The CI API-compatibility gate: the dias facade package is the supported
# API (README.md). Diffs its exported symbols against APICOMPAT_BASE and
# fails on incompatible changes unless the HEAD commit message contains
# "api-break: <reason>". The script guards for the missing tool with an
# install hint (CI installs it; locally:
# go install golang.org/x/exp/cmd/apidiff@latest).
APICOMPAT_BASE ?= origin/main
apicompat:
	./ci/apidiff.sh $(APICOMPAT_BASE)

# Format in place.
fmt:
	gofmt -w .

# Fail if any file needs formatting (used by CI).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "needs gofmt:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Regenerate every figure in parallel and write BENCH_results.json.
experiments:
	$(GO) run ./cmd/dias-experiments -bench-out BENCH_results.json

# Regenerate the committed hypothesis findings (hypotheses/*/FINDINGS.md
# and hypotheses/README.md) after an intentional behavior change; review
# the diff like any other.
hypotheses:
	$(GO) run ./cmd/dias-hypotheses

# The CI hypotheses lane: re-run every hypothesis grid and byte-compare
# against the committed findings. A policy change that flips a verdict —
# or shifts the evidence tables — fails here until the findings are
# regenerated and reviewed.
hypotheses-check:
	$(GO) run ./cmd/dias-hypotheses -check
