package hoyan

import (
	"path/filepath"
	"strings"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/logic"
)

// applyPerturbation replays one gen.Perturb step onto a Network.
func applyPerturbation(t *testing.T, n *Network, p gen.Perturbation) {
	t.Helper()
	switch p.Kind {
	case "link":
		n.AddLink(p.Link.A, p.Link.B, p.Link.Weight)
	default:
		if err := n.ApplyUpdate(p.Device, p.Lines...); err != nil {
			t.Fatalf("%s: %v", p.Description, err)
		}
	}
}

// TestIncrementalMatchesCold is the correctness gate of incremental
// re-verification: across a seeded series of perturbations (policy,
// static, and topology changes), every incremental sweep must produce a
// report identical (modulo timing) to a from-scratch sweep of the same
// network, with the baseline store round-tripped through its JSON
// persistence at every step. It also pins the escape hatch: without a
// baseline nothing is replayed.
func TestIncrementalMatchesCold(t *testing.T) {
	// gen.Medium is the real gate; under the race detector it alone takes
	// four of go test's ten minutes and the package no longer fits, so the
	// detector sees the same code on gen.Small.
	params := gen.Small()
	if !testing.Short() && !raceEnabled {
		params = gen.Medium()
	}
	n, w := wanNetworkFrom(t, params)
	opts := Options{K: 2, AuditSample: 0.3}

	_, store, err := n.SweepBaseline(opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(store.Classes) == 0 || len(store.Configs) == 0 {
		t.Fatalf("baseline store empty: %d classes, %d configs", len(store.Classes), len(store.Configs))
	}

	steps := gen.Perturb(w, 7, 5)
	if len(steps) < 5 {
		t.Fatalf("perturbation series too short: %d steps", len(steps))
	}
	dir := t.TempDir()
	sawReplay, sawFull := false, false
	for i, step := range steps {
		applyPerturbation(t, n, step)

		// Round-trip the baseline through persistence: incremental sweeps
		// must work from a store loaded off disk, portable conditions
		// included.
		path := filepath.Join(dir, "baseline.json")
		if err := store.Save(path); err != nil {
			t.Fatalf("step %d (%s): %v", i, step.Description, err)
		}
		loaded, err := LoadResultStore(path)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, step.Description, err)
		}

		cold, err := n.Sweep(opts, 4)
		if err != nil {
			t.Fatalf("step %d (%s): cold sweep: %v", i, step.Description, err)
		}
		iopts := opts
		iopts.Baseline = loaded
		incr, next, err := n.SweepBaseline(iopts, 4)
		if err != nil {
			t.Fatalf("step %d (%s): incremental sweep: %v", i, step.Description, err)
		}
		diffSweepReports(t, "step "+step.Description, cold, incr)

		if incr.Invalidation == nil {
			t.Fatalf("step %d (%s): incremental sweep reported no invalidation stats", i, step.Description)
		}
		st := incr.Invalidation
		if st.ClassesDirty+st.ClassesReplayed != incr.Classes {
			t.Fatalf("step %d (%s): dirty %d + replayed %d != classes %d",
				i, step.Description, st.ClassesDirty, st.ClassesReplayed, incr.Classes)
		}
		if incr.Replayed != st.ClassesReplayed {
			t.Fatalf("step %d (%s): report replayed %d, stats %d", i, step.Description, incr.Replayed, st.ClassesReplayed)
		}
		switch step.Kind {
		case "link":
			if !st.FullInvalidation {
				t.Fatalf("step %d (%s): topology change must invalidate fully, stats %+v", i, step.Description, st)
			}
			sawFull = true
		default:
			if st.ClassesReplayed > 0 {
				sawReplay = true
			}
		}
		t.Logf("step %d %s: %d dirty, %d replayed, %d replays audited, delta %v",
			i, step.Description, st.ClassesDirty, st.ClassesReplayed, st.ReplaysAudited, st.DeltaKinds)
		store = next
	}
	if !sawReplay {
		t.Fatal("no perturbation step replayed any class; incremental mode never engaged")
	}
	if !sawFull {
		t.Fatal("no step exercised the conservative full-invalidation fallback")
	}

	// Escape hatch: a nil baseline sweeps cold — nothing planned, nothing
	// replayed — and agrees with the incremental sweep of the same state.
	cold, err := n.Sweep(opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	hot := opts
	hot.Baseline = store
	incr, err := n.Sweep(hot, 4)
	if err != nil {
		t.Fatal(err)
	}
	diffSweepReports(t, "nil-baseline escape hatch", cold, incr)
	if cold.Invalidation != nil || cold.Replayed != 0 {
		t.Fatalf("a sweep without a baseline still replayed: %+v", cold)
	}
	if incr.Replayed != incr.Classes {
		t.Fatalf("an unchanged network replayed %d of %d classes", incr.Replayed, incr.Classes)
	}
}

// TestIncrementalSingleChangeIsSelective pins the perf contract behind
// the BENCH_PR4 numbers: one policy term on one device dirties only the
// classes whose prefixes the term can touch — a constant-size set — and
// replays everything else.
func TestIncrementalSingleChangeIsSelective(t *testing.T) {
	n, w := wanNetworkFrom(t, gen.Small())
	opts := Options{K: 2}
	_, store, err := n.SweepBaseline(opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	step := gen.Perturb(w, 3, 1)[0] // a policy perturbation
	if step.Kind != "policy" {
		t.Fatalf("first perturbation should be a policy edit, got %q", step.Kind)
	}
	applyPerturbation(t, n, step)

	iopts := opts
	iopts.Baseline = store
	rep, err := n.Sweep(iopts, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Invalidation
	if st == nil || st.FullInvalidation {
		t.Fatalf("policy edit escalated to full invalidation: %+v", st)
	}
	// The edit pins one prefix: at most the shrunk class and the split
	// singleton re-simulate.
	if st.ClassesDirty > 2 {
		t.Fatalf("single-prefix policy edit dirtied %d classes (replayed %d); want <= 2",
			st.ClassesDirty, st.ClassesReplayed)
	}
	if st.ClassesReplayed == 0 {
		t.Fatal("nothing replayed after a single-prefix edit")
	}
}

// TestReplayAuditChecksStoredCondition: the replay audit's condition
// half reads its anchor out of the record's Conds — the root at the
// fold's weakest router. A store whose verdicts still match a fresh
// simulation but whose condition at the anchor does not must fail the
// audit, not replay.
func TestReplayAuditChecksStoredCondition(t *testing.T) {
	n, _ := wanNetworkFrom(t, gen.Small())
	opts := Options{K: 2}
	_, store, err := n.SweepBaseline(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts.Baseline, opts.AuditSample = store, 1
	rep, err := n.Sweep(opts, 2)
	if err != nil {
		t.Fatalf("auditing an untouched store: %v", err)
	}
	if rep.Replayed != rep.Classes || rep.Invalidation.ReplaysAudited != rep.Classes {
		t.Fatalf("want all %d classes replayed and audited, got %d and %d", rep.Classes, rep.Replayed, rep.Invalidation.ReplaysAudited)
	}

	for i := range store.Classes {
		rec := &store.Classes[i]
		f := logic.NewFactory()
		roots := rec.Conds.Import(f)
		roots[rec.anchor()] = f.Not(roots[rec.anchor()])
		rec.Conds = f.Export(roots...)
	}
	if _, err := n.Sweep(opts, 2); err == nil || !strings.Contains(err.Error(), "no longer equivalent") {
		t.Fatalf("a flipped condition at the anchor must fail the replay audit, got %v", err)
	}
}

// TestBaselineStoreTaintSupersetOfReports is the store-level soundness
// satellite: every device a cached report names must appear in that
// record's taint set, otherwise a delta at that device could be wrongly
// judged non-impacting.
func TestBaselineStoreTaintSupersetOfReports(t *testing.T) {
	params := gen.Small()
	if !testing.Short() {
		params = gen.Medium()
	}
	n, _ := wanNetworkFrom(t, params)
	_, store, err := n.SweepBaseline(Options{K: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range store.Classes {
		tainted := map[string]bool{}
		for _, d := range rec.TaintDevices {
			tainted[d] = true
		}
		sum, viols := rec.Report(rec.Members[0])
		if sum.WeakestRouter != "" && !tainted[sum.WeakestRouter] {
			t.Fatalf("class %s: weakest router %s not in taint set", sum.Prefix, sum.WeakestRouter)
		}
		for _, v := range viols {
			if !tainted[v.Router] {
				t.Fatalf("class %s: violation router %s not in taint set", sum.Prefix, v.Router)
			}
		}
		if len(rec.TaintDevices) == 0 || len(rec.Universe) == 0 {
			t.Fatalf("class %s: empty taint/universe in store record", sum.Prefix)
		}
		if rec.Conds == nil || rec.Conds.NumRoots() != len(rec.Verdicts) || len(rec.Verdicts) == 0 {
			t.Fatalf("class %s: verdicts and portable conditions not captured root for verdict", sum.Prefix)
		}
	}
}
