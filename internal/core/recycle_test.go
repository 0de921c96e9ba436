package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/logic"
)

// classRecord is what a sweep keeps of one class run: its Stats and the
// exported reachability condition at every BGP speaker (the Conds of a
// class record, dist's record export).
func classRecord(t *testing.T, res *Result, cls PrefixClass) (Stats, []byte) {
	t.Helper()
	var conds []logic.F
	for _, node := range res.Sim.M.Net.Nodes() {
		if res.Sim.M.Configs[node.ID].BGP != nil {
			conds = append(conds, res.ReachCond(node.ID, AnyRouteTo(cls.Rep)))
		}
	}
	b, err := json.Marshal(res.Sim.F.Export(conds...))
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats, b
}

// TestResetRunEqualsFresh pins what Reset promises now that it recycles
// the factory in place: a simulator that ran class A and was Reset runs
// class B as a new simulator does — the same Stats, solver nodes
// included, and the same exported bytes of every reachability condition.
// On gen.Medium K=2 every class is B once, after the class before it (the
// first after the last); under the race detector, the first two pairs.
func TestResetRunEqualsFresh(t *testing.T) {
	m := modelFrom(t, gen.Medium())
	opts := DefaultOptions()
	opts.K = 2
	sh := NewShared(m, opts)
	classes := m.Classes()
	pairs := len(classes)
	if raceEnabled || testing.Short() {
		pairs = 2
	}
	reused := sh.NewSimulator()
	if _, err := reused.Run(classes[len(classes)-1].Rep); err != nil {
		t.Fatal(err)
	}
	for _, cls := range classes[:pairs] {
		reused.Reset()
		res, err := reused.Run(cls.Rep)
		if err != nil {
			t.Fatal(err)
		}
		gotStats, gotConds := classRecord(t, res, cls)
		fresh, err := sh.NewSimulator().Run(cls.Rep)
		if err != nil {
			t.Fatal(err)
		}
		wantStats, wantConds := classRecord(t, fresh, cls)
		if gotStats != wantStats {
			t.Fatalf("class of %s after a Reset: stats %+v, a new simulator's %+v", cls.Rep, gotStats, wantStats)
		}
		if !bytes.Equal(gotConds, wantConds) {
			t.Fatalf("class of %s after a Reset: exported conditions differ from a new simulator's", cls.Rep)
		}
		if got, want := reused.F.NumNodes(), fresh.Sim.F.NumNodes(); got != want {
			t.Fatalf("class of %s after a Reset: %d formula nodes, a new simulator's %d", cls.Rep, got, want)
		}
	}
}

// TestResultUsedAfterResetPanics: a Result reads its conditions from the
// simulator's factory, which a Reset recycles. Queried afterwards it must
// panic, not answer from another universe.
func TestResultUsedAfterResetPanics(t *testing.T) {
	m := modelFrom(t, gen.Small())
	opts := DefaultOptions()
	opts.K = 1
	cls := m.Classes()[0]
	pat := AnyRouteTo(cls.Rep)
	node := m.Net.Nodes()[0].ID
	mustPanic := func(what string, res *Result) {
		t.Helper()
		defer func() {
			if r := recover(); r != "core: Result used after its Simulator was Reset" {
				t.Fatalf("%s: recovered %v", what, r)
			}
		}()
		res.Reachable(node, pat)
	}

	sim := NewShared(m, opts).NewSimulator()
	res, err := sim.Run(cls.Rep)
	if err != nil {
		t.Fatal(err)
	}
	res.Reachable(node, pat) // valid until the Reset
	sim.Reset()
	mustPanic("after Reset", res)
	if res, err = sim.Run(cls.Rep); err != nil {
		t.Fatal(err)
	}
	res.MinFailuresToLose(node, pat)
}

// BenchmarkClassesAfterReset is an in-process executor's loop on the
// classes-k2 benchmark workload's shape (64 one-prefix classes, K=2): one
// simulator of one Shared runs every class, Reset before each. One op is
// the whole loop.
func BenchmarkClassesAfterReset(b *testing.B) {
	m := modelFrom(b, gen.Params{Seed: 1, Regions: 2, CoresPerRegion: 2, PEsPerRegion: 4,
		MANsPerRegion: 1, PeersPerRegion: 8, PrefixesPerPeer: 4, ExtraCoreLinks: 1, WANAS: 64500, PolicyDiversity: 4})
	opts := DefaultOptions()
	opts.K = 2
	sim := NewShared(m, opts).NewSimulator()
	classes := m.Classes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cls := range classes {
			sim.Reset()
			if _, err := sim.Run(cls.Rep); err != nil {
				b.Fatal(err)
			}
		}
	}
}
