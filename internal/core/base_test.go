package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/dataplane"
	"hoyan/internal/gen"
	"hoyan/internal/igp"
	"hoyan/internal/logic"
)

// fibRecord is what a pass and its data plane leave: every FIB rule of
// every node, and the exported bytes of every rule's condition and of
// every node's reachability condition for the class.
func fibRecord(t *testing.T, res *core.Result, fib *dataplane.FIB, cls core.PrefixClass) (string, []byte) {
	t.Helper()
	var rules strings.Builder
	var conds []logic.F
	for _, node := range res.Sim.M.Net.Nodes() {
		for _, r := range fib.Rules(node.ID) {
			fmt.Fprintf(&rules, "%s %s -> %d local %v rank %d cond %d\n", node.Name, r.Prefix, r.NextHop, r.Local, r.Rank, r.Cond)
			conds = append(conds, r.Cond)
		}
		conds = append(conds, res.ReachCond(node.ID, core.AnyRouteTo(cls.Rep)))
	}
	b, err := json.Marshal(res.Sim.F.Export(conds...))
	if err != nil {
		t.Fatal(err)
	}
	return rules.String(), b
}

// TestResetDropsWhatFollowsTheBase pins what a Reset keeps of a simulator
// and what it drops. dataplane.Build resolves iBGP next hops through IGP
// next hops the session base does not hold, so it branches them after the
// factory's Mark (and runs no fixpoint); a Reset must drop them with the
// formulas they point into. On gen.Small K=1, a simulator that ran and built every class in
// turn, Reset between classes, gives each class the FIB rules, condition
// ids and exported bytes a new simulator of the same Shared gives it.
func TestResetDropsWhatFollowsTheBase(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.K = 1
	sh := core.NewShared(m, opts)
	reused := sh.NewSimulator()
	for _, cls := range m.Classes() {
		res, err := reused.Run(cls.Rep)
		if err != nil {
			t.Fatal(err)
		}
		gotRules, gotConds := fibRecord(t, res, dataplane.Build(res), cls)
		fresh, err := sh.NewSimulator().Run(cls.Rep)
		if err != nil {
			t.Fatal(err)
		}
		before, formulas := igp.Propagations(), fresh.Sim.F.NumNodes()
		fib := dataplane.Build(fresh)
		if fresh.Sim.F.NumNodes() == formulas {
			t.Fatalf("class of %s: the data plane created no formula, so nothing followed the base", cls.Rep)
		}
		if n := igp.Propagations() - before; n != 0 {
			t.Fatalf("class of %s: the data plane ran %d IS-IS fixpoints", cls.Rep, n)
		}
		wantRules, wantConds := fibRecord(t, fresh, fib, cls)
		if gotRules != wantRules {
			t.Fatalf("class of %s after a Reset: FIB\n%s\na new simulator's\n%s", cls.Rep, gotRules, wantRules)
		}
		if !bytes.Equal(gotConds, wantConds) {
			t.Fatalf("class of %s after a Reset: exported conditions differ from a new simulator's", cls.Rep)
		}
		reused.Reset()
	}
}
