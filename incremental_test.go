package hoyan

import (
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
	"hoyan/internal/igp"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
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

// relinked rebuilds n's topology with every link passed through edit
// (its new weight, or false to drop it) — the link edits Network's
// add-only API has no call for. Node ids carry over, so the new network
// shares n's configuration map (NetworkFrom).
func relinked(n *Network, edit func(l *topo.Link) (uint32, bool)) *Network {
	net := topo.NewNetwork()
	for _, node := range n.net.Nodes() {
		net.MustAddNode(*node)
	}
	for _, l := range n.net.Links() {
		if w, ok := edit(l); ok {
			net.MustAddLink(l.A, l.B, w)
		}
	}
	return NetworkFrom(net, n.snap)
}

// What a step of TestIncrementalMatchesCold expects of the IGP memo the
// baseline carries: a count of destinations to fill in (0 = carried
// whole), or every one of them.
const memoRebuilt = -1

// TestIncrementalMatchesCold is the correctness gate of incremental
// re-verification: across a seeded series of perturbations (policy,
// static, and topology changes) followed by one edit of every input the
// IGP reads, every incremental sweep must produce a report identical
// (modulo timing) to a from-scratch sweep of the same network, with the
// baseline's class records round-tripped through their JSON persistence
// at every step. It pins the IGP memo's carry alongside: an edit the IGP
// cannot see re-runs no IS-IS fixpoint, an edit it can see re-runs them
// all, and a new iBGP neighbour re-runs exactly the one toward it. And
// the escape hatch: without a baseline nothing is replayed.
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
	if store.igp == nil || store.igp.NumDestinations() == 0 {
		t.Fatal("the baseline sweep left no IGP memo on its store")
	}

	type step struct {
		desc  string
		apply func()
		memo  int  // destinations the carried memo lacks, or memoRebuilt
		full  bool // the delta must invalidate every class
	}
	var steps []step
	perturbed := gen.Perturb(w, 7, 5)
	if len(perturbed) < 5 {
		t.Fatalf("perturbation series too short: %d steps", len(perturbed))
	}
	for _, p := range perturbed {
		st := step{desc: p.Description, apply: func() { applyPerturbation(t, n, p) }}
		if p.Kind == "link" {
			st.memo, st.full = memoRebuilt, true
		}
		steps = append(steps, st)
	}

	// One edit of everything the IGP reads, and around them a MAN router
	// losing and regaining its iBGP sessions: unpeered, it is no session's
	// endpoint, so the memo rebuilt by the next IGP edit has no RIB toward
	// it, and peering it again is the one destination to fill in.
	update := func(router string, lines ...string) func() {
		return func() {
			if err := n.ApplyUpdate(router, lines...); err != nil {
				t.Fatal(err)
			}
		}
	}
	man, pe := w.MANs[0], w.PEs[0]
	var peerLines []string
	original := map[string]string{man: config.Write(n.snap[man])}
	for _, nb := range n.snap[man].BGP.Neighbors {
		peerLines = append(peerLines, "no neighbor "+nb.PeerName)
		original[nb.PeerName] = config.Write(n.snap[nb.PeerName])
	}
	peNeighbor := n.net.Node(n.net.Neighbors(mustNode(t, n, pe))[0].Peer).Name
	steps = append(steps,
		step{desc: "bgp: " + man + " loses its iBGP sessions", apply: func() {
			update(man, peerLines...)()
			for peer := range original {
				if peer != man {
					update(peer, "no neighbor "+man)()
				}
			}
		}},
		step{desc: "isis: metric override on " + pe, memo: memoRebuilt, full: true,
			apply: update(pe, "router isis", " metric "+peNeighbor+" 77")},
		step{desc: "bgp: " + man + " is peered again", memo: 1, apply: func() {
			for name, text := range original {
				n.SetConfig(name, text)
			}
		}},
		step{desc: "isis: " + pe + " becomes L1/L2", memo: memoRebuilt, full: true,
			apply: update(pe, "router isis", " level 12")},
		step{desc: "isis: " + pe + " penetrates", memo: memoRebuilt, full: true,
			apply: update(pe, "router isis", " penetrate")},
		step{desc: "link: first link one heavier", memo: memoRebuilt, full: true, apply: func() {
			n = relinked(n, func(l *topo.Link) (uint32, bool) {
				if l.ID == 0 {
					return l.Weight + 1, true
				}
				return l.Weight, true
			})
		}},
		step{desc: "link: last link removed", memo: memoRebuilt, full: true, apply: func() {
			last := topo.LinkID(n.net.NumLinks() - 1)
			n = relinked(n, func(l *topo.Link) (uint32, bool) { return l.Weight, l.ID != last })
		}},
		step{desc: "options: failure budget 1", memo: memoRebuilt, full: true, apply: func() { opts.K = 1 }},
	)

	dir := t.TempDir()
	sawReplay := false
	for i, st := range steps {
		st.apply()

		// Round-trip the baseline through persistence: incremental sweeps
		// must work from a store loaded off disk, portable conditions
		// included. The IGP memo is never on disk; the process that swept
		// still holds it, and hands it on with the records.
		path := filepath.Join(dir, "baseline.json")
		if err := store.Save(path); err != nil {
			t.Fatalf("step %d (%s): %v", i, st.desc, err)
		}
		loaded, err := LoadResultStore(path)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, st.desc, err)
		}
		if loaded.igp != nil {
			t.Fatalf("step %d (%s): a store loaded off disk carries an IGP memo", i, st.desc)
		}
		loaded.igp = store.igp

		cold, err := n.Sweep(opts, 4)
		if err != nil {
			t.Fatalf("step %d (%s): cold sweep: %v", i, st.desc, err)
		}
		iopts := opts
		iopts.Baseline = loaded
		before := igp.Propagations()
		incr, next, err := n.SweepBaseline(iopts, 4)
		if err != nil {
			t.Fatalf("step %d (%s): incremental sweep: %v", i, st.desc, err)
		}
		propagated := int(igp.Propagations() - before)
		diffSweepReports(t, "step "+st.desc, cold, incr)

		if incr.Invalidation == nil {
			t.Fatalf("step %d (%s): incremental sweep reported no invalidation stats", i, st.desc)
		}
		inv := incr.Invalidation
		if inv.ClassesDirty+inv.ClassesReplayed != incr.Classes {
			t.Fatalf("step %d (%s): dirty %d + replayed %d != classes %d",
				i, st.desc, inv.ClassesDirty, inv.ClassesReplayed, incr.Classes)
		}
		if incr.Replayed != inv.ClassesReplayed {
			t.Fatalf("step %d (%s): report replayed %d, stats %d", i, st.desc, incr.Replayed, inv.ClassesReplayed)
		}
		if st.full && !inv.FullInvalidation {
			t.Fatalf("step %d (%s): an IGP-visible change must invalidate fully, stats %+v", i, st.desc, inv)
		}
		if !st.full && inv.ClassesReplayed > 0 {
			sawReplay = true
		}
		switch had := store.igp.NumDestinations(); {
		case next.igp == nil:
			t.Fatalf("step %d (%s): the sweep left no IGP memo on its store", i, st.desc)
		case st.memo == memoRebuilt:
			if propagated == 0 || propagated != next.igp.NumDestinations() || next.igp.Key() == store.igp.Key() {
				t.Fatalf("step %d (%s): the IGP can see this edit, yet %d of %d destinations were propagated (key moved: %v)",
					i, st.desc, propagated, next.igp.NumDestinations(), next.igp.Key() != store.igp.Key())
			}
		case propagated != st.memo || next.igp.NumDestinations() != had+st.memo || next.igp.Key() != store.igp.Key():
			t.Fatalf("step %d (%s): %d IGP propagations, want %d; the memo went from %d to %d destinations",
				i, st.desc, propagated, st.memo, had, next.igp.NumDestinations())
		}
		t.Logf("step %d %s: %d dirty, %d replayed, %d replays audited, %d IGP propagations, delta %v",
			i, st.desc, inv.ClassesDirty, inv.ClassesReplayed, inv.ReplaysAudited, propagated, inv.DeltaKinds)
		store = next
	}
	if !sawReplay {
		t.Fatal("no perturbation step replayed any class; incremental mode never engaged")
	}

	// Escape hatch: a nil baseline sweeps cold — nothing planned, nothing
	// replayed, every fixpoint run — and agrees with the incremental sweep
	// of the same state.
	before := igp.Propagations()
	cold, err := n.Sweep(opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(igp.Propagations() - before); got != store.igp.NumDestinations() {
		t.Fatalf("a sweep without a baseline ran %d IGP propagations, want all %d: something cached a memo", got, store.igp.NumDestinations())
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

// TestIncrementalInProcessMatchesLoaded pins the identity path of
// incremental re-verification, the one TestIncrementalMatchesCold never
// takes: the baseline store stays in the memory of the process that
// captured it, so its devices are the network's own, and core.Diff
// compares only the devices an edit replaced. Over the same perturbation
// series, each step's delta must equal, item for item and in order, the
// delta planned against the same store saved and loaded back (whose
// devices are parsed, so Diff compares every one), and each step's report
// must equal a cold sweep's. Reinstalling a device's own text is a new
// object with equal content and diffs empty. An edit made after capture
// through another Network that shares n's map copies the map first: it
// shows up in that Network's delta against the store, and n's map and
// the store's devices stay as they were. A link added through the
// network after capture shows up in the next delta: the store's model
// keeps the topology it swept.
func TestIncrementalInProcessMatchesLoaded(t *testing.T) {
	params := gen.Small()
	if !testing.Short() && !raceEnabled {
		params = gen.Medium()
	}
	n, w := wanNetworkFrom(t, params)
	opts := Options{K: 2}
	_, store, err := n.SweepBaseline(opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	routers := n.net.NumNodes()
	path := filepath.Join(t.TempDir(), "baseline.json")

	// step applies one edit, sweeps against the in-process store and
	// checks it against the loaded store's plan and a cold sweep; it
	// returns the delta the sweep acted on.
	step := func(desc string, apply func()) *core.ModelDelta {
		t.Helper()
		prev := maps.Clone(n.snap)
		apply()
		replaced := 0
		for name, d := range n.snap {
			if prev[name] != d {
				replaced++
			}
		}

		if err := store.Save(path); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		loaded, err := LoadResultStore(path)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		want, err := n.PlanIncremental(opts, loaded)
		if err != nil {
			t.Fatalf("%s: plan against the loaded store: %v", desc, err)
		}

		iopts := opts
		iopts.Baseline = store
		incr, next, err := n.SweepBaseline(iopts, 4)
		if err != nil {
			t.Fatalf("%s: incremental sweep: %v", desc, err)
		}
		cold, err := n.Sweep(opts, 4)
		if err != nil {
			t.Fatalf("%s: cold sweep: %v", desc, err)
		}
		diffSweepReports(t, desc, cold, incr)

		got, inv := incr.Delta, incr.Invalidation
		if got == nil || inv == nil {
			t.Fatalf("%s: the incremental sweep reported no delta", desc)
		}
		if !reflect.DeepEqual(got.Items, want.Delta.Items) {
			t.Fatalf("%s: the in-process delta differs from the loaded store's:\n%s\nwant\n%s", desc, got, want.Delta)
		}
		if inv.ClassesDirty != want.Stats.ClassesDirty || inv.ClassesReplayed != want.ReplayedClasses {
			t.Fatalf("%s: in process %d dirty / %d replayed, loaded %d / %d",
				desc, inv.ClassesDirty, inv.ClassesReplayed, want.Stats.ClassesDirty, want.ReplayedClasses)
		}
		if inv.DevicesCompared != replaced || got.DevicesCompared != replaced {
			t.Fatalf("%s: Diff compared %d devices in process, want the %d the edit replaced", desc, inv.DevicesCompared, replaced)
		}
		if want.Stats.DevicesCompared != routers {
			t.Fatalf("%s: Diff compared %d devices of the loaded store, want all %d", desc, want.Stats.DevicesCompared, routers)
		}
		for name, d := range n.snap {
			if text := config.Write(d); next.Configs[name] != text {
				t.Fatalf("%s: the capture stored for %s\n%s\nwant\n%s", desc, name, next.Configs[name], text)
			}
		}
		t.Logf("%s: %d devices replaced, %d dirty, %d replayed, delta %v", desc, replaced, inv.ClassesDirty, inv.ClassesReplayed, inv.DeltaKinds)
		store = next
		return got
	}

	for _, p := range gen.Perturb(w, 7, 5) {
		step(p.Description, func() { applyPerturbation(t, n, p) })
	}

	pe := w.PEs[0]
	if d := step("own text reinstalled on "+pe, func() { n.SetConfig(pe, config.Write(n.snap[pe])) }); !d.Empty() {
		t.Fatalf("reinstalling %s's own text diffs non-empty:\n%s", pe, d)
	}

	// A Network sharing n's map (relinked builds one through NetworkFrom):
	// its edit after the capture copies the map, so it is in its own delta
	// against the store, not in n's, and reaches neither n's map nor the
	// store's devices.
	shared := relinked(n, func(l *topo.Link) (uint32, bool) { return l.Weight, true })
	own := n.snap[pe]
	d := step("bgp: "+pe+" originates 198.18.0.0/24 through a Network sharing the map", func() {
		bgp := fmt.Sprintf("router bgp %d", own.BGP.AS)
		if err := shared.ApplyUpdate(pe, bgp, " network 198.18.0.0/24"); err != nil {
			t.Fatal(err)
		}
	})
	if !d.Empty() || n.snap[pe] != own || shared.snap[pe] == own {
		t.Fatalf("an edit through a Network sharing n's map reached n: delta\n%s\nn's %s replaced: %v, the editor's: %v",
			d, pe, n.snap[pe] != own, shared.snap[pe] != own)
	}
	if id := mustNode(t, n, pe); store.model.Configs[id] != own || store.Configs[pe] != config.Write(own) {
		t.Fatalf("an edit through a Network sharing n's map reached the store's device %s", pe)
	}
	sp, err := shared.PlanIncremental(opts, store)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(sp.Delta.Items, func(it core.DeltaItem) bool { return it.Device == pe }) {
		t.Fatalf("the edit through a Network sharing n's map is missing from its delta against the store:\n%s", sp.Delta)
	}

	a, b := w.PEs[0], w.PEs[len(w.PEs)-1]
	if _, linked := n.net.LinkBetween(mustNode(t, n, a), mustNode(t, n, b)); linked {
		t.Fatalf("%s and %s are already linked", a, b)
	}
	d = step("link: "+a+"~"+b+" added through the network", func() { n.AddLink(a, b, 35) })
	if !d.Full() || !slices.ContainsFunc(d.Items, func(it core.DeltaItem) bool { return it.Kind == core.DeltaLinkAdded }) {
		t.Fatalf("a link added after capture must be a link-added item with full invalidation:\n%s", d)
	}
}

func mustNode(t *testing.T, n *Network, name string) topo.NodeID {
	t.Helper()
	node, ok := n.net.NodeByName(name)
	if !ok {
		t.Fatalf("no router %q", name)
	}
	return node.ID
}

// TestIncrementalSingleChangeIsSelective pins the perf contract behind
// incremental re-verification (the benchmark's hoyan.classes_dirty): one
// policy term on one device dirties only the classes whose prefixes the
// term can touch — a constant-size set — and
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
// audit, not replay, whichever executors ran the audit passes.
func TestReplayAuditChecksStoredCondition(t *testing.T) {
	n, _ := wanNetworkFrom(t, gen.Small())
	opts := Options{K: 2}
	_, store, err := n.SweepBaseline(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts.Baseline, opts.AuditSample = store, 1
	pools := []struct {
		name string
		pool dist.Pool
	}{
		{"in-process", dist.Local(2)},
		{"tcp", loopbackPool(t, n, 2)},
	}
	for _, pl := range pools {
		rep, _, err := n.SweepOver(opts, pl.pool, nil, false)
		if err != nil {
			t.Fatalf("%s: auditing an untouched store: %v", pl.name, err)
		}
		if rep.Replayed != rep.Classes || rep.Invalidation.ReplaysAudited != rep.Classes {
			t.Fatalf("%s: want all %d classes replayed and audited, got %d and %d", pl.name, rep.Classes, rep.Replayed, rep.Invalidation.ReplaysAudited)
		}
	}

	for i := range store.Classes {
		rec := &store.Classes[i]
		f := logic.NewFactory()
		roots := rec.Conds.Import(f)
		roots[rec.anchor()] = f.Not(roots[rec.anchor()])
		rec.Conds = f.Export(roots...)
	}
	for _, pl := range pools {
		if _, _, err := n.SweepOver(opts, pl.pool, nil, false); err == nil || !strings.Contains(err.Error(), "no longer equivalent") {
			t.Fatalf("%s: a flipped condition at the anchor must fail the replay audit, got %v", pl.name, err)
		}
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
