package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFigure4Example reproduces the worked example of Figure 4: D receives a
// route to subnet N under V = (a1∧a4) ∨ (¬a1∧a2∧a3∧a4); the minimum failure
// set violating V is {Link 4}.
func TestFigure4Example(t *testing.T) {
	f := NewFactory()
	a1, a2, a3, a4 := f.Var(1), f.Var(2), f.Var(3), f.Var(4)
	r3 := f.And(a1, a4)
	r4 := f.AndAll(f.Not(a1), a2, a3, a4)
	v := f.Or(r3, r4)

	if !f.SAT(v) {
		t.Fatal("V must be satisfiable (all links up works)")
	}
	if got := f.MinFalse(v); got != 0 {
		t.Fatalf("V holds with zero failures, MinFalse = %d", got)
	}
	if got := f.MinFailuresToViolate(v); got != 1 {
		t.Fatalf("one failure (link 4) violates V, got %d", got)
	}
	asn, cost, ok := f.MinFailureScenario(f.Not(v))
	if !ok || cost != 1 {
		t.Fatalf("expected a single-failure scenario, got cost=%d ok=%v", cost, ok)
	}
	if up, present := asn[4]; !present || up {
		t.Fatalf("the minimal scenario must fail link 4, got %v", asn)
	}
}

// TestFigure5AlwaysFalse reproduces the p6 branch of Figure 5 whose
// condition (¬a1∧a2∧a3∧a4)∧a4∧a1 is impossible and must be pruned.
func TestFigure5AlwaysFalse(t *testing.T) {
	f := NewFactory()
	a1, a2, a3, a4 := f.Var(1), f.Var(2), f.Var(3), f.Var(4)
	p6 := f.AndAll(f.Not(a1), a2, a3, a4, a4, a1)
	if !f.Impossible(p6) {
		t.Fatal("p6's condition is contradictory and must be impossible")
	}
}

func TestMinFalseUnsat(t *testing.T) {
	f := NewFactory()
	a := f.Var(1)
	x := f.And(a, f.Not(a))
	if got := f.MinFalse(x); got != Unfailable {
		t.Fatalf("MinFalse of unsat = %d, want Unfailable", got)
	}
}

func TestMinFailuresToViolateTautology(t *testing.T) {
	f := NewFactory()
	a := f.Var(1)
	taut := f.Or(a, f.Not(a))
	if got := f.MinFailuresToViolate(taut); got != Unfailable {
		t.Fatalf("a tautology cannot be violated, got %d", got)
	}
}

func TestMinFalseCountsOnlyRequiredFailures(t *testing.T) {
	f := NewFactory()
	// ¬a1 ∧ ¬a2 ∧ a3: needs exactly two failures.
	x := f.AndAll(f.NotVar(1), f.NotVar(2), f.Var(3))
	if got := f.MinFalse(x); got != 2 {
		t.Fatalf("MinFalse = %d, want 2", got)
	}
}

func TestAnyAssignment(t *testing.T) {
	f := NewFactory()
	x := f.AndAll(f.NotVar(1), f.Var(2))
	asn, ok := f.AnyAssignment(x)
	if !ok {
		t.Fatal("satisfiable formula must yield an assignment")
	}
	if !f.Eval(x, asn) {
		t.Fatalf("returned assignment %v does not satisfy the formula", asn)
	}
	if _, ok := f.AnyAssignment(False); ok {
		t.Fatal("False must not yield an assignment")
	}
}

func TestImplies(t *testing.T) {
	f := NewFactory()
	a, b := f.Var(1), f.Var(2)
	if !f.Implies(f.And(a, b), a) {
		t.Fatal("a∧b ⇒ a")
	}
	if f.Implies(a, f.And(a, b)) {
		t.Fatal("a ⇏ a∧b")
	}
	if !f.Implies(False, b) {
		t.Fatal("false implies everything")
	}
}

func TestEquivalentDistribution(t *testing.T) {
	f := NewFactory()
	a, b, c := f.Var(1), f.Var(2), f.Var(3)
	lhs := f.And(a, f.Or(b, c))
	rhs := f.Or(f.And(a, b), f.And(a, c))
	if !f.Equivalent(lhs, rhs) {
		t.Fatal("distribution law must hold")
	}
}

func TestBDDSize(t *testing.T) {
	f := NewFactory()
	if f.BDDSize(True) != 0 || f.BDDSize(False) != 0 {
		t.Fatal("terminals have zero decision nodes")
	}
	if f.BDDSize(f.Var(1)) != 1 {
		t.Fatal("single variable has one decision node")
	}
}

func TestSimplifyCollapsesRedundancy(t *testing.T) {
	f := NewFactory()
	a, b := f.Var(1), f.Var(2)
	// (a∧b) ∨ (a∧¬b) == a
	x := f.Or(f.And(a, b), f.And(a, f.Not(b)))
	y := f.Simplify(x)
	if y != a {
		t.Fatalf("Simplify((a&b)|(a&!b)) = %s, want a1", f.String(y))
	}
}

// Property: MinFailureScenario returns an assignment that satisfies the
// formula at the claimed cost, and the cost equals MinFalse.
func TestPropertyMinFailureScenario(t *testing.T) {
	const nvars = 5
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewFactory()
		x := randomFormula(f, rng, nvars, 4)
		asn, cost, ok := f.MinFailureScenario(x)
		if !ok {
			return !f.SAT(x)
		}
		if !f.Eval(x, asn) {
			return false
		}
		falses := 0
		for _, val := range asn {
			if !val {
				falses++
			}
		}
		return falses == cost && cost == f.MinFalse(x)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Implies(a,b) agrees with brute-force checking.
func TestPropertyImplies(t *testing.T) {
	const nvars = 4
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewFactory()
		a := randomFormula(f, rng, nvars, 3)
		b := randomFormula(f, rng, nvars, 3)
		brute := true
		for mask := 0; mask < 1<<nvars; mask++ {
			asn := Assignment{}
			for v := 0; v < nvars; v++ {
				asn[Var(v)] = mask&(1<<v) != 0
			}
			if f.Eval(a, asn) && !f.Eval(b, asn) {
				brute = false
				break
			}
		}
		return f.Implies(a, b) == brute
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkConditionBuildAndPrune(b *testing.B) {
	// Mimics a propagation hop: extend a path condition by one link and
	// test the two prunes.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := NewFactory()
		cond := True
		for l := Var(0); l < 24; l++ {
			cond = f.And(cond, f.Var(l))
			if f.Impossible(cond) || f.MinFalse(cond) > 3 {
				b.Fatal("path condition must survive")
			}
		}
	}
}

func BenchmarkMinFailuresToViolate(b *testing.B) {
	f := NewFactory()
	// A disjunction of 8 alternative paths of length 6 each.
	var alts []F
	v := Var(0)
	for p := 0; p < 8; p++ {
		path := True
		for l := 0; l < 6; l++ {
			path = f.And(path, f.Var(v))
			v++
		}
		alts = append(alts, path)
	}
	reach := f.OrAll(alts...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.MinFailuresToViolate(reach) != 8 {
			b.Fatal("each path needs one failure; 8 disjoint paths need 8")
		}
	}
}

// wanBuild grows route conditions the way a propagation does — each
// router ranks the alternatives its neighbours offer, guards each by "no
// better one holds", ANDs in the link, applies the two prunes and
// simplifies what grew long (core.Simulator.announce) — over a seeded ring
// of routers with chords, for a fixed number of rounds. It returns the
// reachability condition each router ended with.
func wanBuild(f *Factory, routers, chords, rounds, k int) []F {
	rng := rand.New(rand.NewSource(3))
	type adj struct {
		peer int
		link F
	}
	nbrs := make([][]adj, routers)
	nlinks := 0
	link := func(a, b int) {
		l := f.Var(Var(nlinks))
		nlinks++
		nbrs[a] = append(nbrs[a], adj{b, l})
		nbrs[b] = append(nbrs[b], adj{a, l})
	}
	for r := 0; r < routers; r++ {
		link(r, (r+1)%routers)
	}
	for c := 0; c < chords; c++ {
		a, b := rng.Intn(routers), rng.Intn(routers)
		if a != b {
			link(a, b)
		}
	}
	alts := make([][]F, routers) // best first
	alts[0] = []F{True}
	for round := 0; round < rounds; round++ {
		next := make([][]F, routers)
		next[0] = alts[0]
		for r := 1; r < routers; r++ {
			notHigher := True
			for _, nb := range nbrs[r] {
				for _, c := range alts[nb.peer] {
					if len(next[r]) >= 8 {
						break
					}
					guard := f.And(notHigher, c)
					notHigher = f.And(notHigher, f.Not(c))
					cond := f.And(guard, nb.link)
					if f.Impossible(cond) || f.MinFalse(cond) > k {
						continue
					}
					if f.Len(cond) > 24 {
						cond = f.Simplify(cond)
					}
					next[r] = append(next[r], cond)
				}
			}
		}
		alts = next
	}
	out := make([]F, routers)
	for r := range out {
		out[r] = f.OrAll(alts[r]...)
	}
	return out
}

// BenchmarkApplyWAN is the kernel's local loop: one factory taken through
// a condition build the size of one compile-k3 class (benchmark/: 45
// routers, K=3, about 270 000 BDD nodes and 70 000 formula nodes per
// class), then asked each router's min-failures.
func BenchmarkApplyWAN(b *testing.B) {
	b.ReportAllocs()
	nodes := 0
	for i := 0; i < b.N; i++ {
		f := NewFactory()
		for _, reach := range wanBuild(f, 45, 25, 22, 3) {
			if f.MinFailuresToViolate(reach) < 1 {
				b.Fatal("every router is reachable with all links up")
			}
		}
		nodes = f.SolverNodes()
	}
	b.ReportMetric(float64(nodes), "bddnodes")
}
