package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	f := NewFactory()
	if f.Eval(True, nil) != true {
		t.Fatal("True must evaluate to true")
	}
	if f.Eval(False, nil) != false {
		t.Fatal("False must evaluate to false")
	}
	if f.Len(True) != 1 || f.Len(False) != 1 {
		t.Fatal("constants have length 1")
	}
}

func TestVarDefaultTrue(t *testing.T) {
	f := NewFactory()
	a := f.Var(3)
	if !f.Eval(a, Assignment{}) {
		t.Fatal("unassigned variables default to true (link up)")
	}
	if f.Eval(a, Assignment{3: false}) {
		t.Fatal("assigned false must evaluate false")
	}
}

func TestHashConsing(t *testing.T) {
	f := NewFactory()
	a, b := f.Var(1), f.Var(2)
	x := f.And(a, b)
	y := f.And(a, b)
	if x != y {
		t.Fatal("identical formulas must intern to the same reference")
	}
	// And is commutative under canonical ordering.
	if f.And(b, a) != x {
		t.Fatal("And must canonicalize operand order")
	}
	if f.Or(b, a) != f.Or(a, b) {
		t.Fatal("Or must canonicalize operand order")
	}
}

func TestLocalSimplifications(t *testing.T) {
	f := NewFactory()
	a := f.Var(1)
	cases := []struct {
		got, want F
		name      string
	}{
		{f.And(a, True), a, "a&true"},
		{f.And(True, a), a, "true&a"},
		{f.And(a, False), False, "a&false"},
		{f.And(a, a), a, "a&a"},
		{f.And(a, f.Not(a)), False, "a&!a"},
		{f.Or(a, False), a, "a|false"},
		{f.Or(a, True), True, "a|true"},
		{f.Or(a, a), a, "a|a"},
		{f.Or(a, f.Not(a)), True, "a|!a"},
		{f.Not(f.Not(a)), a, "!!a"},
		{f.Not(True), False, "!true"},
		{f.Not(False), True, "!false"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %s want %s", c.name, f.String(c.got), f.String(c.want))
		}
	}
}

func TestAndAllOrAll(t *testing.T) {
	f := NewFactory()
	if f.AndAll() != True {
		t.Fatal("empty conjunction is True")
	}
	if f.OrAll() != False {
		t.Fatal("empty disjunction is False")
	}
	a, b, c := f.Var(1), f.Var(2), f.Var(3)
	x := f.AndAll(a, b, c)
	if !f.Eval(x, Assignment{1: true, 2: true, 3: true}) {
		t.Fatal("conjunction of true literals must hold")
	}
	if f.Eval(x, Assignment{2: false}) {
		t.Fatal("conjunction with one false literal must fail")
	}
	y := f.OrAll(a, b, c)
	if f.Eval(y, Assignment{1: false, 2: false, 3: false}) {
		t.Fatal("disjunction of false literals must fail")
	}
}

func TestLenTracksLiterals(t *testing.T) {
	f := NewFactory()
	a, b, c := f.Var(1), f.Var(2), f.Var(3)
	x := f.And(f.Or(a, b), f.Not(c))
	if got := f.Len(x); got != 3 {
		t.Fatalf("Len = %d, want 3 literals", got)
	}
}

func TestVars(t *testing.T) {
	f := NewFactory()
	x := f.And(f.Or(f.Var(5), f.Var(2)), f.Not(f.Var(9)))
	vs := f.Vars(x)
	want := []Var{2, 5, 9}
	if len(vs) != len(want) {
		t.Fatalf("Vars = %v, want %v", vs, want)
	}
	for i := range vs {
		if vs[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vs, want)
		}
	}
}

func TestStringRoundTripReadable(t *testing.T) {
	f := NewFactory()
	x := f.And(f.Var(1), f.Not(f.Var(2)))
	s := f.String(x)
	if s != "a1 & !a2" && s != "!a2 & a1" {
		t.Fatalf("unexpected rendering %q", s)
	}
}

// randomFormula builds a random formula over nvars variables with the given
// depth budget, returning the formula and an evaluator-independent
// description is unnecessary because we evaluate through the factory.
func randomFormula(f *Factory, rng *rand.Rand, nvars, depth int) F {
	if depth == 0 || rng.Intn(4) == 0 {
		v := Var(rng.Intn(nvars))
		if rng.Intn(2) == 0 {
			return f.Var(v)
		}
		return f.NotVar(v)
	}
	switch rng.Intn(3) {
	case 0:
		return f.And(randomFormula(f, rng, nvars, depth-1), randomFormula(f, rng, nvars, depth-1))
	case 1:
		return f.Or(randomFormula(f, rng, nvars, depth-1), randomFormula(f, rng, nvars, depth-1))
	default:
		return f.Not(randomFormula(f, rng, nvars, depth-1))
	}
}

func randomAssignment(rng *rand.Rand, nvars int) Assignment {
	asn := Assignment{}
	for v := 0; v < nvars; v++ {
		asn[Var(v)] = rng.Intn(2) == 0
	}
	return asn
}

// Property: BDD satisfiability agrees with brute-force evaluation over all
// assignments for small variable counts.
func TestPropertySATAgreesWithBruteForce(t *testing.T) {
	const nvars = 5
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewFactory()
		x := randomFormula(f, rng, nvars, 4)
		brute := false
		for mask := 0; mask < 1<<nvars; mask++ {
			asn := Assignment{}
			for v := 0; v < nvars; v++ {
				asn[Var(v)] = mask&(1<<v) != 0
			}
			if f.Eval(x, asn) {
				brute = true
				break
			}
		}
		return f.SAT(x) == brute
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MinFalse equals the brute-force minimum number of false
// variables over satisfying assignments.
func TestPropertyMinFalseAgreesWithBruteForce(t *testing.T) {
	const nvars = 5
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewFactory()
		x := randomFormula(f, rng, nvars, 4)
		best := Unfailable
		for mask := 0; mask < 1<<nvars; mask++ {
			asn := Assignment{}
			falses := 0
			for v := 0; v < nvars; v++ {
				val := mask&(1<<v) != 0
				asn[Var(v)] = val
				if !val {
					falses++
				}
			}
			if f.Eval(x, asn) && falses < best {
				best = falses
			}
		}
		return f.MinFalse(x) == best
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Simplify preserves the boolean function and never lengthens.
func TestPropertySimplifyPreservesSemantics(t *testing.T) {
	const nvars = 6
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewFactory()
		x := randomFormula(f, rng, nvars, 5)
		y := f.Simplify(x)
		if f.Len(y) > f.Len(x) {
			return false
		}
		if !f.Equivalent(x, y) {
			return false
		}
		// Spot-check with random assignments too.
		for i := 0; i < 16; i++ {
			asn := randomAssignment(rng, nvars)
			if f.Eval(x, asn) != f.Eval(y, asn) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan duality holds through the BDD engine.
func TestPropertyDeMorgan(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewFactory()
		a := randomFormula(f, rng, 4, 3)
		b := randomFormula(f, rng, 4, 3)
		lhs := f.Not(f.And(a, b))
		rhs := f.Or(f.Not(a), f.Not(b))
		return f.Equivalent(lhs, rhs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestShape(t *testing.T) {
	f := NewFactory()
	a, b := f.Var(1), f.Var(2)
	if s := f.Shape(True); s.Kind != WalkConst || !s.Value {
		t.Fatal("True shape")
	}
	if s := f.Shape(False); s.Kind != WalkConst || s.Value {
		t.Fatal("False shape")
	}
	if s := f.Shape(a); s.Kind != WalkVar || s.Variable != 1 {
		t.Fatal("var shape")
	}
	n := f.Not(a)
	if s := f.Shape(n); s.Kind != WalkNot || s.A != a {
		t.Fatal("not shape")
	}
	x := f.And(a, b)
	if s := f.Shape(x); s.Kind != WalkAnd {
		t.Fatal("and shape")
	}
	y := f.Or(a, b)
	if s := f.Shape(y); s.Kind != WalkOr {
		t.Fatal("or shape")
	}
}

// Property: AndAllGuarded is AndAll with another route to the same BDD.
// It returns the node AndAll creates — the same id, and nothing else
// created — and the root it memoizes on that node is the one a fresh
// build of the same function reaches (canonical roots are equal ids in
// one space), with the size and MinFalse a plain build of AndAll's node
// has in a twin factory. Guards are what the IGP fixpoint passes: any
// formula, True included.
func TestPropertyAndAllGuarded(t *testing.T) {
	const nvars = 6
	prop := func(seed int64) bool {
		operands := func(f *Factory) (g, x, v F) {
			rng := rand.New(rand.NewSource(seed))
			g = randomFormula(f, rng, nvars, 4)
			if rng.Intn(4) == 0 {
				g = True
			}
			x = randomFormula(f, rng, nvars, 4)
			return g, x, f.Var(Var(rng.Intn(nvars)))
		}
		guarded, plain := NewFactory(), NewFactory()
		g, x, v := operands(guarded)
		r := guarded.AndAllGuarded(g, x, v)
		pg, px, pv := operands(plain)
		want := plain.AndAll(pg, px, pv)
		if r != want || guarded.NumNodes() != plain.NumNodes() {
			return false
		}
		if guarded.AndAllGuarded(g, x, v) != r {
			return false
		}
		return guarded.Equivalent(r, guarded.And(guarded.And(v, g), x)) &&
			guarded.BDDSize(r) == plain.BDDSize(want) &&
			guarded.MinFalse(r) == plain.MinFalse(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a conjunction needs at least the failures of each conjunct,
// and an impossible conjunct makes it impossible. The IGP fixpoint's dead
// guard rests on both: once a guard needs more than K failures (or is
// impossible), so does every guard and candidate conjoined from it.
func TestPropertyConjunctionIsMonotone(t *testing.T) {
	const nvars = 6
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewFactory()
		a := randomFormula(f, rng, nvars, 4)
		b := randomFormula(f, rng, nvars, 4)
		ab := f.And(a, b)
		if f.MinFalse(ab) < max(f.MinFalse(a), f.MinFalse(b)) {
			return false
		}
		return !f.Impossible(a) || f.Impossible(ab)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEvalAllUpMatchesWalk pins Eval's stored all-links-up value to the
// walk it replaced under an empty assignment: every random formula reads
// what the walk under an assignment setting each variable true gives, in
// a fresh factory, after a Mark and Recycles, and through Import.
func TestEvalAllUpMatchesWalk(t *testing.T) {
	const nvars = 6
	up := Assignment{}
	for v := range nvars {
		up[Var(v)] = true
	}
	rng := rand.New(rand.NewSource(5))
	f := NewFactory()
	base := randomFormula(f, rng, nvars, 5)
	f.Mark()
	other := NewFactory()
	for i := range 400 {
		x := randomFormula(f, rng, nvars, 6)
		for _, y := range []F{x, f.Not(x), f.And(x, base), f.Or(f.Not(x), base), False, True} {
			if got, want := f.Eval(y, nil), f.Eval(y, up); got != want {
				t.Fatalf("formula %d: Eval(nil) %v, walk %v: %s", i, got, want, f.String(y))
			}
		}
		z := f.Export(x).Import(other)[0]
		if other.Eval(z, Assignment{}) != f.Eval(x, up) {
			t.Fatalf("formula %d: imported Eval differs", i)
		}
		if i%50 == 49 {
			f.Recycle()
		}
	}
}
