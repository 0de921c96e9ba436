GO ?= go

.PHONY: build test vet fmt lint vet-configs race check bench fuzz-smoke chaos determinism scale-smoke benchmark-module

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when any Go file in the tree, benchmark/ included, is not
# gofmt-formatted. It only reads: the fix is `gofmt -w` on the files it
# names.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi

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
# run, just a guarantee that the evaluation harness and the local loops
# of the solver kernel (internal/logic, BenchmarkApplyWAN), the IGP
# fixpoint (internal/igp, BenchmarkBuildMemo: gen.Medium at K=1, where its
# dead-guard prune fires a few entries down each ranked list, and at K=3,
# where it fires late), the data plane's SPF branching (internal/igp,
# BenchmarkNextHops: every node's next hops toward every destination of
# gen.Medium at K=3), a simulator's class loop with a Reset between
# classes (internal/core, BenchmarkClassesAfterReset), the diff behind a
# resweep after one policy edit of gen.Medium, against a baseline that
# shares the untouched devices and against one re-parsed from its text
# (internal/core, BenchmarkDiffOneDevice), the publish of a resweep
# that re-simulated one class, compiled from the previous snapshot on a
# store of the classes-k2 shape (internal/qc,
# BenchmarkCompileFromOneDirtyClass), and an executor's
# class loop under the connection reuse rule (internal/dist,
# BenchmarkConnectionClasses on the compile-k3 and classes-k2 shapes)
# keep compiling and completing. Real measurements come from the
# pipeline benchmark (benchmark/README.md).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' . ./internal/logic ./internal/igp ./internal/core ./internal/qc ./internal/dist

# benchmark-module builds, vets and smoke-tests the nested pipeline
# benchmark (its own Go module, so the root `go test ./...` never sees
# it) against this tree's signatures.
benchmark-module:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark ./...

# chaos re-runs the crash-recovery and multi-session suite under the race
# detector: the faultnet × kill-point matrix (coordinator killed
# mid-sweep, resumed, byte-compared against an uninterrupted run),
# journal semantics (OpenSession's reader, admit's header and its
# refusals), interleaved sessions over a shared worker pool, the
# Shared LRU building outside its lock, and the scheduler's origin
# affinity (a stalled executor among them) — then the root package's
# TestSweepModeMatrix, the one sweep test that drives loopback TCP
# workers, a journal and baseline capture together, and the CLI's
# journaled sweeps (killed, then resumed by re-running the command).
# `race` already runs every one of these once, so `check` does not
# depend on this target: it is the line to re-run when a failure names a
# seed (the seed is printed in every failure message), as
# CHAOS_SEED=<seed> make chaos.
chaos: determinism
	$(GO) test -race -run 'Chaos|Session|Resume|Admit|Interleaved|LRU|ModelHash|SharedBuild|ResidentMemo|Affinity' ./internal/dist/
	$(GO) test -race -run 'TestSweepModeMatrix|TestSweepJournal' .
	$(GO) test -race -run 'TestSweepJournal' ./cmd/hoyan/

# determinism runs the parallel IGP memo build ten times over under the
# race detector — the one repetition `race` (a single pass) does not give
# — and with it the variable-order tests: the order is built by sorting
# and cached on a network that executors share, so it must read no map in
# iteration order and race with no reader. So do the solver kernel's byte
# pins: Simplify's output is a function of the boolean function alone
# (an extraction from the truth table exports the same bytes, whatever
# edge of the complement-edge BDD denotes it), and a factory whose lossy
# computed cache evicts constantly makes the same nodes and Simplify
# bytes as a roomy one. The recycling tests ride along:
# a recycled factory (to the constants or to a marked base), a Reset
# simulator (its data plane included) and a memo goroutine that recycles
# its factory between destinations must each equal a fresh one. So does
# the IGP fixpoint's byte pin against the map-based reference it replaced,
# and the data plane's next-hop pin: SPF branching gives the first hop of
# the K=0 fixpoint on every world it covers, and two engines asked for the
# same next hops create the same formulas in the same order.
# So do the memo's three import pins: every memo root equals an engine's
# reachability condition, ImportRoots equals Import on the roots it names
# and builds nothing else, and a simulator's session base imports only
# its sessions' conditions. So does the step-cap refusal: on a network
# whose IS-IS fixpoint hits the cap, the Verifier and every simulator of
# a Shared fail with the Shared's error instead of answering. The
# parallel phases ride along too. They take their items from one queue
# (internal/work), which must run every index exactly once at every
# worker count: which goroutine runs which item is up to the scheduler,
# so only repeated runs under the race detector cover the interleavings.
# Its callers are pinned to their serial answers: the memo above, a
# Save that encodes class records on GOMAXPROCS goroutines must write
# json.Marshal's bytes, and a compile that lowers them so must equal the
# serial one, error included. Export's bytes are a function of the
# formulas alone: the same roots built in factories of other histories
# (unrelated nodes first, operands swapped, a recycle to a Mark) export
# the same bytes, and a replay series of gen.Small edits captures, 60
# times over, the cold capture's bytes (that test repeats itself, so it
# runs once). They are also pinned to a map-based reference exporter: its
# table is stamped per export and reused across exports, Recycles and a
# wrap of the stamp counter, so a stale stamp read as live would read a
# wrong key or store a wrong index.
# So does the store's reproducibility: two sweeps and saves of gen.Small
# write byte-identical files. And the snapshot immutability contract a
# resweep's diff rests on: Apply shares every device no update names, an
# in-process baseline diffs like the same store loaded off disk (a link
# added after capture included), two overlapping resweeps of the service
# share devices while queries read them, a resweep assembles one model
# that its commit's Verifier serves while /v1/route queries read the model
# the next resweep diffs against, and neither a topology nor a
# configuration map that a Verifier, a caller or a Clone holds is ever
# edited in place (an edit copies it first). So
# does the replay rule: a policy nothing attaches changes no scope and no
# class, and a class replays the record of any member the edit left
# alone, through splits and merges, as a cold sweep answers (gen.Small
# under the race detector), and the model hash keeps its bytes whether
# the devices are written by it or handed to it written.
determinism:
	$(GO) test -race -count=10 -run 'TestMemoBuildDeterministic|TestMemoReachMatchesEngine|TestPropagateMatchesReference|TestNextHopMatchesUncappedPathVector|TestStepCapRefusesEverySimulator|TestOrderShrinksSolver|TestResetRunEqualsFresh|TestResetDropsWhatFollowsTheBase|TestBaseImportsOnlySessionRoots|TestUnreferencedPolicyIsInert' ./internal/igp/ ./internal/core/
	$(GO) test -race -count=10 -run 'TestRecycleIsFresh|TestRecycleToMarkIsFresh|TestImportRootsMatchesImport|TestExportMatchesReference|TestExportIsCanonical|TestSimplifyDependsOnlyOnTheFunction|TestEvictionsChangeNothing' ./internal/logic/
	$(GO) test -race -count=10 -run 'TestRunCoversEachIndexOnce' ./internal/work/
	$(GO) test -race -count=10 -run 'TestVarOrder' ./internal/topo/
	$(GO) test -race -count=10 -run 'TestSweepIndependentOfTopologyFileOrder|TestSaveMatchesMarshal|TestSaveTwiceSameBytes|TestCompileStripedMatchesSerial' . ./internal/qc/
	$(GO) test -race -count=10 -run 'TestIncrementalInProcessMatchesLoaded|TestTopologyEditLeavesItsHolders|TestApplySharesUntouchedDevices|TestOverlappingResweepsPublish|TestResweepAssemblesOnce|TestReplayByMemberMatchesCold' . ./internal/config/ ./internal/httpapi/
	$(GO) test -race -count=10 -run 'TestModelHashBytes' ./internal/dist/
	$(GO) test -race -run 'TestCaptureBytesIndependentOfHistory' .

# scale-smoke bounds the paper-scale modular path: the modular plan over
# remote workers against the monolithic class run, under the race
# detector. Part of `race`; kept as a target to run on its own.
scale-smoke:
	$(GO) test -race -run 'TestRunModularMatchesRunClasses' ./internal/dist/

# fuzz-smoke runs each fuzz target briefly — enough to replay the corpus
# and shake out shallow parser regressions without turning CI into a
# fuzzing campaign. FuzzParse is the config parser's: no input panics it,
# and an accepted config's canonical text re-parses to the same text.
# FuzzOpenSession is the sweep journal reader's, the decoder of a file a
# crash left behind: no input panics it, an accepted journal reopens to
# the same state, and a valid journal cut anywhere opens with a prefix of
# its completions. FuzzLoadDir is the topology loader's: no topology.txt
# panics gen.LoadDir, and an accepted directory round-trips through
# gen.WriteDir unchanged. FuzzQuery is GET /v1/query's over a published
# gen.Small snapshot: no query string panics it, every answer is 200 or
# 400, and a 200 reach verdict is the compiled program's under the echoed
# failure set. FuzzRoute is GET /v1/route's and /v1/packet's on a gen.Small
# service at K=1, which simulate on demand on the Verifier's Shared (its
# IGP memo is built by the first query): no query string panics them,
# every answer is 200 or 400, and a 200 min_failures lies in [-1, K]. FuzzWorkerAnswer is a worker's request
# decoder and pass path on gen.Small, seeded with a real home and import
# pass: no request panics the worker, and every answer is verdicts, a
# refusal or an error. FuzzConnectionSequence answers up to 8 gen.Small
# passes (class, region or none, record or not) on one executor's
# connection and each on a fresh one: the answers must be equal, however
# the reuse rule kept or recycled the factory between them. FuzzResweep
# is POST /v1/resweep's on a new gen.Small service per body, seeded with
# audit_sample 1: no body panics it, every answer is 200, 400 or 500 and
# no 500 an audit divergence, and /v1/query answers afterwards.
# FuzzSnapshotPublish is POST /v1/snapshots's: it fuzzes the bytes of the
# store file the body's path names (never the path) and the body's
# activate form, seeded with a real gen.Small store; every answer is 200
# or 400, and a 400 leaves the active snapshot and every /v1/query
# answer unchanged. FuzzPublishSequence drives up to 8 steps on one
# gen.Small service (a resweep with an edit from a fixed menu, with or
# without no_incremental, a staged publish of the held baseline, an
# activation): after each, every reach and minfail answer of a fixed deck
# equals a fresh qc.CompileStore's of the active store, however many
# programs the publishes reused. An input
# of any of these can be a whole simulation, so minimizing a new one runs
# many: -fuzzminimizetime=1s caps that, where the default 60s would spend
# the whole run on the first new input. FuzzStoreEncode builds result
# stores from the input (arbitrary strings, verdicts, condition sets, nil
# and empty slices) and asserts that ResultStore.Save writes exactly
# json.Marshal's bytes.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzStoreEncode$$' -fuzztime=10s .
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/config/
	$(GO) test -run='^$$' -fuzz='^FuzzParseTemplates$$' -fuzztime=10s ./internal/config/
	$(GO) test -run='^$$' -fuzz='^FuzzPrefixParse$$' -fuzztime=10s ./internal/config/
	$(GO) test -run='^$$' -fuzz='^FuzzLoadDir$$' -fuzztime=10s ./internal/gen/
	$(GO) test -run='^$$' -fuzz='^FuzzOpenSession$$' -fuzztime=10s ./internal/dist/
	$(GO) test -run='^$$' -fuzz='^FuzzWorkerAnswer$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/dist/
	$(GO) test -run='^$$' -fuzz='^FuzzConnectionSequence$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/dist/
	$(GO) test -run='^$$' -fuzz=FuzzPortableDecode -fuzztime=10s ./internal/logic/
	$(GO) test -run='^$$' -fuzz=FuzzCollectorLine -fuzztime=10s ./internal/collector/
	$(GO) test -run='^$$' -fuzz=FuzzCompiledEval -fuzztime=10s ./internal/qc/
	$(GO) test -run='^$$' -fuzz='^FuzzQuery$$' -fuzztime=10s ./internal/httpapi/
	$(GO) test -run='^$$' -fuzz='^FuzzRoute$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/httpapi/
	$(GO) test -run='^$$' -fuzz='^FuzzResweep$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/httpapi/
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotPublish$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/httpapi/
	$(GO) test -run='^$$' -fuzz='^FuzzPublishSequence$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/httpapi/

# check is the CI gate, defined here and nowhere else (ci.sh calls it):
# vet + gofmt + hoyanlint + config vet, the full suite once under the race
# detector — the dist/collector chaos tests included; they are
# deterministic (seeded faultnet, byte-budget fault schedules), so no
# flake allowance — the memo determinism repetitions, the benchmark smoke
# and the nested benchmark module.
check: vet fmt lint vet-configs race determinism bench benchmark-module
