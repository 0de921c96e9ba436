package dist

import (
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/gen"
)

// modularPlan builds the modular plan of the WAN's class partition: the
// partition's regions, and each class homed where its family originates
// (no home where FamilyHome refuses).
func modularPlan(t testing.TB, w *gen.WAN, k int) *Plan {
	t.Helper()
	model, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := core.NewPartition(model)
	if err != nil {
		t.Fatal(err)
	}
	p := &Plan{K: k}
	for i := 0; i < pt.NumRegions(); i++ {
		p.Regions = append(p.Regions, pt.RegionName(i))
	}
	for _, cl := range model.Classes() {
		c := Class{Members: cl.MemberStrings()}
		if hi, err := pt.FamilyHome(model, cl.Rep); err == nil {
			c.Home = pt.RegionName(hi)
		}
		p.Classes = append(p.Classes, c)
	}
	return p
}

// TestRunModularMatchesRunClasses checks a modular plan over remote
// workers against the monolithic class run it replaces: same class
// partition, same workers, verdict-for-verdict identical summaries in
// the same (node) order. K=1 must need no fallback at all; K=3 exercises
// the refusal path (the AllowASLoop echo routes cross a second cut on
// gen.Medium, a genuine monolithic behavior the region passes refuse to
// approximate) and so proves refused representatives land on
// byte-identical monolithic answers.
func TestRunModularMatchesRunClasses(t *testing.T) {
	w, err := gen.Generate(gen.Medium())
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop := startWorkers(t, w, 2)
	defer stop()
	coord := &Coordinator{Addrs: addrs}

	for _, k := range []int{1, 3} {
		plan := modularPlan(t, w, k)
		var classes [][]string
		for _, c := range plan.Classes {
			classes = append(classes, c.Members)
		}
		mono, err := coord.RunClasses(classes, k)
		if err != nil {
			t.Fatalf("k=%d: RunClasses: %v", k, err)
		}
		mod, err := Run(plan, coord)
		if err != nil {
			t.Fatalf("k=%d: modular Run: %v", k, err)
		}
		if mod.ModularPasses == 0 {
			t.Fatalf("k=%d: no modular passes dispatched", k)
		}
		if k == 1 && mod.ModularRefused != 0 {
			t.Fatalf("k=1: %d representatives refused, want 0", mod.ModularRefused)
		}
		if mod.Classes != mono.Classes {
			t.Fatalf("k=%d: classes %d vs %d", k, mod.Classes, mono.Classes)
		}
		if len(mod.ByPrefix) != len(mono.ByPrefix) {
			t.Fatalf("k=%d: completed %d vs %d prefixes", k, len(mod.ByPrefix), len(mono.ByPrefix))
		}
		for p, want := range mono.ByPrefix {
			got, ok := mod.ByPrefix[p]
			if !ok {
				t.Fatalf("k=%d: %s missing from modular result", k, p)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d: %s: %d vs %d router summaries", k, p, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d: %s at %s: modular %+v vs monolithic %+v",
						k, p, want[i].Router, got[i], want[i])
				}
			}
		}
		t.Logf("k=%d: %d classes, %d modular passes, %d refused", k, mod.Classes, mod.ModularPasses, mod.ModularRefused)
	}
}
