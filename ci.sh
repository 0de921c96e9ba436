#!/bin/sh
# CI gate: build, static analysis, and the full test suite under the race
# detector. Equivalent to `make check` plus fuzz smoke for environments
# without make.
set -eu

go build ./...
go vet ./...
# hoyanlint is the project's own analysis suite (cmd/hoyanlint):
# determinism, formula-safety and hot-path invariants. Unsuppressed
# diagnostics fail CI. The -json report is archived as the stable
# machine-readable failure summary (same schema family as
# `hoyan vet -json`) and echoed on failure.
lint_report="${TMPDIR:-/tmp}/hoyanlint.json"
if ! go run ./cmd/hoyanlint -json ./... >"$lint_report"; then
	echo "hoyanlint findings ($lint_report):" >&2
	cat "$lint_report" >&2
	exit 1
fi
# Config-plane static analysis: hoyan vet over the committed example
# network must be finding-free — the analyzers' false-positive contract
# (see DESIGN.md, "Config vet").
go run ./cmd/hoyan vet -dir examples/networks/small
# govulncheck is advisory when present: the container has no module
# network access, so absence or failure must not gate the build.
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./... || echo "govulncheck: advisory, ignoring failure"
else
	echo "govulncheck: not installed, skipping (advisory)"
fi
go test -race ./...
# Chaos gate: the crash-recovery matrix (faultnet modes × coordinator
# kill points) and multi-session pool tests, explicitly under -race even
# though the full suite above already covers them — this is the line to
# re-run with CHAOS_SEED=<seed> when a failure names a seed. The
# recovery experiment then smokes on the small preset without writing a
# snapshot; real BENCH_PR6.json numbers come from `hoyanbench -exp
# recovery` on the medium preset.
go test -race -run 'Chaos|Session|Resume|Interleaved|LRU|ModelHash' ./internal/dist/
go run ./cmd/hoyanbench -exp recovery -rec-preset small -rec-iters 1 -rec-out=
# Scale smoke: the modular plan over remote workers against the
# monolithic class run, under -race.
go test -race -run 'TestRunModularMatchesRunClasses' ./internal/dist/
# Fuzz smoke: replay the corpus plus a few seconds of mutation on the
# untrusted-input parsers. Failing inputs minimize into testdata/fuzz and
# then fail `go test` forever after, so a crash found here stays fixed.
go test -run='^$' -fuzz=FuzzPortableDecode -fuzztime=10s ./internal/logic/
go test -run='^$' -fuzz=FuzzCollectorLine -fuzztime=10s ./internal/collector/
go test -run='^$' -fuzz=FuzzCompiledEval -fuzztime=10s ./internal/qc/
# Benchmark smoke: one iteration of every benchmark keeps the evaluation
# harness honest without turning CI into a timing run.
go test -bench=. -benchtime=1x -run='^$' .
# The pipeline benchmark is a Go module of its own, so the root `go test
# ./...` never builds it: vet and smoke-test it against this tree.
go vet -C benchmark ./... && go test -C benchmark ./...
# Perf trajectory: diff the latest two BENCH_*.json snapshots and judge
# directional metrics against a 25% regression threshold. Advisory by
# default — snapshot timings come from the machine that recorded them, so
# a delta here informs rather than gates — but BENCH_STRICT=1 makes a
# threshold breach fatal for runs on a stable benchmarking host.
if [ "${BENCH_STRICT:-0}" = "1" ]; then
	go run ./cmd/benchcompare -fail-over 25
else
	go run ./cmd/benchcompare -fail-over 25 || echo "benchcompare: advisory, ignoring failure"
fi
