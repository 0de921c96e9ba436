GO ?= go

.PHONY: build test vet lint vet-configs race check bench bench-compare fuzz-smoke chaos scale-smoke benchmark-module

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs hoyanlint (cmd/hoyanlint), the project's own go/analysis-style
# suite: maporder, factorymix, hotpathalloc, netdeadline, locksift. Any
# unsuppressed diagnostic fails the build; reviewed false positives carry
# a `//lint:allow <analyzer> <reason>` comment. See DESIGN.md, "Static
# analysis".
lint:
	$(GO) run ./cmd/hoyanlint ./...

# vet-configs runs the config-level static analyzers (hoyan vet, see
# DESIGN.md "Config vet") over the committed example network. It must be
# finding-free: the corpus is the analyzers' false-positive contract in
# CI, the config-plane twin of `make lint`.
vet-configs:
	$(GO) run ./cmd/hoyan vet -dir examples/networks/small

race:
	$(GO) test -race ./...

# bench smoke-runs every benchmark once (-benchtime=1x): not a timing
# run, just a guarantee that the evaluation harness keeps compiling and
# completing. Real measurements use `go test -bench=.` defaults,
# `hoyanbench -perf`, or the pipeline benchmark (benchmark/README.md).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# benchmark-module builds, vets and smoke-tests the nested pipeline
# benchmark (its own Go module, so the root `go test ./...` never sees
# it) against this tree's signatures.
benchmark-module:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark ./...

# bench-compare diffs the latest two committed perf snapshots
# (BENCH_*.json) with per-metric deltas. Advisory: a regression prints
# loudly but never fails the build — snapshot timings come from whatever
# machine recorded them, so CI can't hold new code to them.
bench-compare:
	-$(GO) run ./cmd/benchcompare

# chaos runs the crash-recovery and multi-session suite under the race
# detector: the faultnet × kill-point matrix (coordinator killed
# mid-sweep, resumed, byte-compared against an uninterrupted run),
# journal resume semantics, and interleaved sessions over a shared
# worker pool. Deterministic: the seed is printed in every failure
# message; reproduce a red run with CHAOS_SEED=<seed> make chaos. The
# IGP memo's concurrency rides along: the Shared LRU building outside its
# lock, and the parallel memo build's determinism, ten times over.
chaos:
	$(GO) test -race -run 'Chaos|Session|Resume|Interleaved|LRU|ModelHash|SharedBuild|ResidentMemo' ./internal/dist/
	$(GO) test -race -count=10 -run 'TestMemoBuildDeterministic' ./internal/igp/ ./internal/core/
	$(GO) run ./cmd/hoyanbench -exp recovery -rec-preset small -rec-iters 1 -rec-out=

# scale-smoke bounds the paper-scale modular path: the modular plan over
# remote workers against the monolithic class run, under the race
# detector.
scale-smoke:
	$(GO) test -race -run 'TestRunModularMatchesRunClasses' ./internal/dist/

# fuzz-smoke runs each fuzz target briefly — enough to replay the corpus
# and shake out shallow parser regressions without turning CI into a
# fuzzing campaign.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzPortableDecode -fuzztime=10s ./internal/logic/
	$(GO) test -run='^$$' -fuzz=FuzzCollectorLine -fuzztime=10s ./internal/collector/
	$(GO) test -run='^$$' -fuzz=FuzzCompiledEval -fuzztime=10s ./internal/qc/

# check is the CI gate: vet + hoyanlint, then the full suite under the
# race detector and the benchmark smoke. The dist/collector chaos tests
# run here too — they are deterministic (seeded faultnet, byte-budget
# fault schedules), so no flake allowance.
check: vet lint vet-configs race chaos scale-smoke bench benchmark-module bench-compare
