package logic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// Truth tables over ttVars variables, one bit per assignment. Var i is
// bit ttVars-1-i of the assignment's index, so fixing the variables in BDD
// order (smallest Var on top) halves a table into contiguous halves.
const (
	ttVars  = 12
	ttWords = (1 << ttVars) / 64
)

type truthTable [ttWords]uint64

func ttOfVar(v Var) (t truthTable) {
	for idx := 0; idx < 1<<ttVars; idx++ {
		if idx>>(ttVars-1-int(v))&1 == 1 {
			t[idx/64] |= 1 << (idx % 64)
		}
	}
	return t
}

func (t truthTable) not() truthTable {
	for i := range t {
		t[i] = ^t[i]
	}
	return t
}

func (t truthTable) and(u truthTable) truthTable {
	for i := range t {
		t[i] &= u[i]
	}
	return t
}

func (t truthTable) or(u truthTable) truthTable {
	for i := range t {
		t[i] |= u[i]
	}
	return t
}

// minFalse is Factory.MinFalse by enumeration: the fewest zero bits in
// the index of a satisfying assignment.
func (t truthTable) minFalse() int {
	best := Unfailable
	for idx := 0; idx < 1<<ttVars; idx++ {
		if t[idx/64]>>(idx%64)&1 == 1 {
			best = min(best, ttVars-bits.OnesCount(uint(idx)))
		}
	}
	return best
}

// bddSize is the size of the reduced ordered BDD by its definition: the
// distinct sub-tables, reached by fixing variables in order, whose two
// halves differ.
func (t truthTable) bddSize() int {
	cells := make([]byte, 1<<ttVars)
	for idx := range cells {
		cells[idx] = byte(t[idx/64] >> (idx % 64) & 1)
	}
	seen := map[string]bool{}
	var walk func(c []byte)
	walk = func(c []byte) {
		if len(c) == 1 {
			return
		}
		lo, hi := c[:len(c)/2], c[len(c)/2:]
		if bytes.Equal(lo, hi) {
			walk(lo)
			return
		}
		if seen[string(c)] {
			return
		}
		seen[string(c)] = true
		walk(lo)
		walk(hi)
	}
	walk(cells)
	return len(seen)
}

// tabledFormula draws one formula from rng and builds it in every given
// factory through the same constructor calls, next to its truth table.
func tabledFormula(rng *rand.Rand, fs []*Factory) ([]F, truthTable) {
	type term struct {
		x  []F
		tt truthTable
	}
	var pool []term
	for i := 0; i < 6+rng.Intn(8); i++ {
		v := Var(rng.Intn(ttVars))
		tm := term{tt: ttOfVar(v)}
		for _, f := range fs {
			tm.x = append(tm.x, f.Var(v))
		}
		pool = append(pool, tm)
	}
	for ops := 20 + rng.Intn(60); ops > 0; ops-- {
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		var tm term
		op := rng.Intn(5)
		switch op {
		case 0:
			tm.tt = a.tt.not()
		case 1, 2:
			tm.tt = a.tt.and(b.tt)
		default:
			tm.tt = a.tt.or(b.tt)
		}
		for i, f := range fs {
			switch op {
			case 0:
				tm.x = append(tm.x, f.Not(a.x[i]))
			case 1, 2:
				tm.x = append(tm.x, f.And(a.x[i], b.x[i]))
			default:
				tm.x = append(tm.x, f.Or(a.x[i], b.x[i]))
			}
		}
		pool = append(pool, tm)
	}
	last := pool[len(pool)-1]
	return last.x, last.tt
}

// smallRoom is the solver room of the kernel tests' small factory: small
// enough that its tables double many times over a test.
const smallRoom = 1 << 9

// newSmallFactory is NewFactory with solver tables that start at
// smallRoom nodes instead of bddRoom.
func newSmallFactory() *Factory {
	f := NewFactory()
	f.bdd = newBDDSpace(smallRoom)
	return f
}

// TestEvictionsChangeNothing pins the property the lossy computed cache
// rests on: what it forgets is only ever recomputed into nodes that
// already exist. One factory starts at smallRoom, so over the run its
// unique table and cache double many times and the cache, a quarter of a
// small table, evicts constantly; the other starts at bddRoom.
// Every answer is checked against the truth table, and the two factories
// must agree to the node: same node count, same Simplify output bytes.
func TestEvictionsChangeNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	small, roomy := newSmallFactory(), NewFactory()
	fs := []*Factory{small, roomy}
	for n := 0; n < 2000; n++ {
		xs, tt := tabledFormula(rng, fs)
		var simplified [][]byte
		for i, f := range fs {
			x := xs[i]
			if got, want := f.SAT(x), tt != (truthTable{}); got != want {
				t.Fatalf("formula %d, factory %d: SAT = %v, truth table says %v", n, i, got, want)
			}
			if got, want := f.MinFalse(x), tt.minFalse(); got != want {
				t.Fatalf("formula %d, factory %d: MinFalse = %d, truth table says %d", n, i, got, want)
			}
			if got, want := f.MinFailuresToViolate(x), tt.not().minFalse(); got != want {
				t.Fatalf("formula %d, factory %d: MinFailuresToViolate = %d, truth table says %d", n, i, got, want)
			}
			if got, want := f.BDDSize(x), tt.bddSize(); got != want {
				t.Fatalf("formula %d, factory %d: BDDSize = %d, truth table says %d", n, i, got, want)
			}
			b, err := json.Marshal(f.Export(f.Simplify(x)))
			if err != nil {
				t.Fatal(err)
			}
			simplified = append(simplified, b)
		}
		if !bytes.Equal(simplified[0], simplified[1]) {
			t.Fatalf("formula %d: Simplify differs between the factories:\n%s\n%s", n, simplified[0], simplified[1])
		}
	}
	if small.SolverNodes() != roomy.SolverNodes() {
		t.Fatalf("evictions created nodes: %d in the small factory, %d in the roomy one", small.SolverNodes(), roomy.SolverNodes())
	}
	if floor := tableSize(smallRoom); len(small.bdd.unique) < 8*floor {
		t.Fatalf("the small factory's tables grew from %d to %d slots; the test needs several doublings", floor, len(small.bdd.unique))
	}
	for i, f := range fs {
		if len(f.bdd.cache)*cacheShare != len(f.bdd.unique) {
			t.Fatalf("factory %d: %d cache slots beside %d unique slots; the cache's size is the unique table's over %d", i, len(f.bdd.cache), len(f.bdd.unique), cacheShare)
		}
	}
}

// TestSimplifyDependsOnlyOnTheFunction pins what lets the kernel's
// complement edges move no stored byte: Simplify's output is a function
// of the boolean function alone, as a BDD without complement edges
// extracts it from the node for that function. A reference extracts
// from the truth table by the same Shannon recursion — top variable
// first, hi cofactor before lo, the same special cases, memoized per
// subfunction — in a second factory that never builds a BDD and is fed
// the same constructor calls, so the two hand out the same formula ids
// and Export must write the same bytes. Over the 2 000 formulas of
// TestEvictionsChangeNothing it also checks that negation is the edge's
// bit and that no interned node has a complemented hi edge.
func TestSimplifyDependsOnlyOnTheFunction(t *testing.T) {
	f, ref := NewFactory(), NewFactory()
	memo := map[string]F{}
	// extract is Factory.extract over a truth table, one byte per
	// assignment; a table of 2^m cells ranges over the last m variables.
	var extract func(c []byte) F
	extract = func(c []byte) F {
		// A function that does not depend on its first variable is the
		// same function over the rest: the BDD branches past it.
		for len(c) > 1 && bytes.Equal(c[:len(c)/2], c[len(c)/2:]) {
			c = c[:len(c)/2]
		}
		if len(c) == 1 {
			if c[0] == 1 {
				return True
			}
			return False
		}
		if r, ok := memo[string(c)]; ok {
			return r
		}
		v := ref.Var(Var(ttVars - bits.Len(uint(len(c))) + 1))
		hi := extract(c[len(c)/2:])
		lo := extract(c[:len(c)/2])
		var r F
		switch {
		case hi == True && lo == False:
			r = v
		case hi == False && lo == True:
			r = ref.Not(v)
		case hi == True:
			r = ref.Or(v, lo)
		case lo == False:
			r = ref.And(v, hi)
		case hi == False:
			r = ref.And(ref.Not(v), lo)
		case lo == True:
			r = ref.Or(ref.Not(v), hi)
		default:
			r = ref.Or(ref.And(v, hi), ref.And(ref.Not(v), lo))
		}
		memo[string(c)] = r
		return r
	}
	rng := rand.New(rand.NewSource(23))
	for n := 0; n < 2000; n++ {
		xs, tt := tabledFormula(rng, []*Factory{f, ref})
		cells := make([]byte, 1<<ttVars)
		for idx := range cells {
			if tt.at(idx) {
				cells[idx] = 1
			}
		}
		want := extract(cells)
		if want != True && want != False && ref.Len(want) >= ref.Len(xs[1]) {
			want = xs[1]
		}
		got, err := json.Marshal(f.Export(f.Simplify(xs[0])))
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := json.Marshal(ref.Export(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("formula %d: Simplify exports\n%s\nthe truth table's extraction exports\n%s", n, got, wantBytes)
		}
		if r, nr := f.build(xs[0]), f.build(f.Not(xs[0])); nr != r^1 {
			t.Fatalf("formula %d: ¬x builds to edge %d, x to %d; negation is the edge's bit", n, nr, r)
		}
		ref.Not(xs[1]) // the constructor call f just made, so ids stay in step
	}
	for id, nd := range f.bdd.nodes[1:] {
		if nd.hi&1 != 0 {
			t.Fatalf("node %d (level %d, lo %d, hi %d) has a complemented hi edge", id+1, nd.v, nd.lo, nd.hi)
		}
	}
}

// TestCacheDoublesInsideApply forces the tables to double in the middle
// of one apply: the operands are small, their disjunction is not (pairs
// x_i ∧ y_i with every x ordered before every y). The result stored after
// the recursion must land in the cache the space has now, not in the one
// apply read on entry.
func TestCacheDoublesInsideApply(t *testing.T) {
	const pairs = 12
	halves := func(f *Factory) (F, F) {
		var terms []F
		for i := 0; i < pairs; i++ {
			terms = append(terms, f.And(f.Var(Var(i)), f.Var(Var(pairs+i))))
		}
		return f.OrAll(terms[:pairs/2]...), f.OrAll(terms[pairs/2:]...)
	}
	small, roomy := newSmallFactory(), NewFactory()
	a, b := halves(small)
	ra, rb := small.build(a), small.build(b)
	s := small.bdd
	before := len(s.unique)
	// a ∨ b is ¬(¬a ∧ ¬b): the outermost apply conjoins the complements.
	na, nb := ra^1, rb^1
	r := s.apply(na, nb) ^ 1
	if len(s.unique) < 4*before {
		t.Fatalf("unique table went from %d to %d slots inside the apply; the test needs it to double at least twice", before, len(s.unique))
	}
	if na > nb {
		na, nb = nb, na
	}
	key := uint64(na)<<32 | uint64(nb)
	if e := *s.cacheSlot(key); e.key != key || e.r != r^1 {
		t.Fatalf("the outermost apply's result is not in the current cache: slot holds %+v, want key %#x r %d", e, key, r^1)
	}

	x := small.Or(a, b)
	a2, b2 := halves(roomy)
	x2 := roomy.Or(a2, b2)
	if small.build(x) != r || roomy.build(x2) != r {
		t.Fatalf("root ids differ: apply %d, small %d, roomy %d", r, small.build(x), roomy.build(x2))
	}
	if small.SolverNodes() != roomy.SolverNodes() {
		t.Fatalf("node counts differ: %d after doubling mid-apply, %d without", small.SolverNodes(), roomy.SolverNodes())
	}
	if got := small.MinFailuresToViolate(x); got != pairs {
		t.Fatalf("MinFailuresToViolate = %d: one failure per pair falsifies the disjunction, so %d", got, pairs)
	}
}

// TestRecycleIsFresh pins what Factory.Recycle promises: a factory whose
// tables a heavy unrelated workload has doubled several times, once
// recycled, is indistinguishable from a new one under the same order.
// The 2 000 formulas of TestEvictionsChangeNothing are replayed in both
// through the same constructor calls; every formula id, BDD root, node
// count, Simplify output and exported byte must be equal.
func TestRecycleIsFresh(t *testing.T) {
	vars := make([]Var, ttVars)
	for i := range vars {
		vars[i] = Var(i)
	}
	rand.New(rand.NewSource(25)).Shuffle(ttVars, func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	order := NewOrder(vars)

	recycled := NewFactoryOrdered(order)
	wanBuild(recycled, 45, 25, 22, 3)
	dirty := len(recycled.bdd.unique)
	recycled.Recycle()
	fresh := NewFactoryOrdered(order)
	if recycled.Recycles() != 1 || fresh.Recycles() != 0 || recycled.NumNodes() != 2 || recycled.SolverNodes() != 0 {
		t.Fatalf("after one Recycle: %d recycles, %d formula nodes, %d solver nodes; want 1, 2 (the constants), 0",
			recycled.Recycles(), recycled.NumNodes(), recycled.SolverNodes())
	}

	rng := rand.New(rand.NewSource(23))
	fs := []*Factory{recycled, fresh}
	for n := 0; n < 2000; n++ {
		xs, _ := tabledFormula(rng, fs)
		if xs[0] != xs[1] {
			t.Fatalf("formula %d: id %d in the recycled factory, %d in the fresh one", n, xs[0], xs[1])
		}
		if a, b := recycled.build(xs[0]), fresh.build(xs[1]); a != b {
			t.Fatalf("formula %d: BDD root %d in the recycled factory, %d in the fresh one", n, a, b)
		}
		if a, b := recycled.SolverNodes(), fresh.SolverNodes(); a != b {
			t.Fatalf("formula %d: %d solver nodes in the recycled factory, %d in the fresh one", n, a, b)
		}
		sa, sb := recycled.Simplify(xs[0]), fresh.Simplify(xs[1])
		if sa != sb {
			t.Fatalf("formula %d: Simplify gives %d in the recycled factory, %d in the fresh one", n, sa, sb)
		}
		ea, err := json.Marshal(recycled.Export(xs[0], sa))
		if err != nil {
			t.Fatal(err)
		}
		eb, err := json.Marshal(fresh.Export(xs[1], sb))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea, eb) {
			t.Fatalf("formula %d: exports differ:\n%s\n%s", n, ea, eb)
		}
	}
	if len(recycled.bdd.unique) < 4*len(fresh.bdd.unique) || len(recycled.bdd.unique) != dirty {
		t.Fatalf("unique table of %d slots recycled (%d after the replay) against %d fresh; the test needs a recycled table kept at least 4× larger",
			dirty, len(recycled.bdd.unique), len(fresh.bdd.unique))
	}
}

// TestRecycleToMarkIsFresh pins Recycle to a base: a factory that built
// a base of 300 formulas (a third simplified, a third only built, a third
// never built), marked it, then took a load that reads the base — every
// base formula simplified, negated and conjoined with a new variable, so
// memos of base nodes now point past the Mark — and had its tables
// doubled by a compile-k3-class build, is, once recycled,
// indistinguishable from a new factory that built the same base: every
// formula id, BDD root, node count, Simplify output and exported byte is
// equal, over the base formulas and the 2 000 of TestRecycleIsFresh.
func TestRecycleToMarkIsFresh(t *testing.T) {
	vars := make([]Var, ttVars)
	for i := range vars {
		vars[i] = Var(i)
	}
	rand.New(rand.NewSource(25)).Shuffle(ttVars, func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	order := NewOrder(vars)

	recycled, fresh := NewFactoryOrdered(order), NewFactoryOrdered(order)
	fs := []*Factory{recycled, fresh}
	rng := rand.New(rand.NewSource(27))
	var base [][]F
	for n := 0; n < 300; n++ {
		xs, _ := tabledFormula(rng, fs)
		base = append(base, xs)
		for i, f := range fs {
			switch n % 3 {
			case 0:
				f.Simplify(xs[i])
			case 1:
				f.MinFalse(xs[i])
			}
		}
	}
	recycled.Mark()
	nodes, solver := recycled.NumNodes(), recycled.SolverNodes()
	for _, xs := range base {
		x := xs[0]
		recycled.Simplify(x)
		recycled.Simplify(recycled.Not(x))
		recycled.MinFalse(recycled.And(x, recycled.Var(ttVars)))
	}
	wanBuild(recycled, 45, 25, 22, 3)
	dirty := len(recycled.bdd.unique)
	recycled.Recycle()
	if recycled.NumNodes() != nodes || recycled.SolverNodes() != solver {
		t.Fatalf("recycled to the Mark: %d formula nodes, %d solver nodes; want the base's %d, %d",
			recycled.NumNodes(), recycled.SolverNodes(), nodes, solver)
	}

	same := func(what string, a, b F) {
		t.Helper()
		if a != b {
			t.Fatalf("%s: id %d in the recycled factory, %d in the fresh one", what, a, b)
		}
		if ra, rb := recycled.build(a), fresh.build(b); ra != rb {
			t.Fatalf("%s: BDD root %d in the recycled factory, %d in the fresh one", what, ra, rb)
		}
		if na, nb := recycled.SolverNodes(), fresh.SolverNodes(); na != nb {
			t.Fatalf("%s: %d solver nodes in the recycled factory, %d in the fresh one", what, na, nb)
		}
		sa, sb := recycled.Simplify(a), fresh.Simplify(b)
		if sa != sb {
			t.Fatalf("%s: Simplify gives %d in the recycled factory, %d in the fresh one", what, sa, sb)
		}
		ea, err := json.Marshal(recycled.Export(a, sa))
		if err != nil {
			t.Fatal(err)
		}
		eb, err := json.Marshal(fresh.Export(b, sb))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea, eb) {
			t.Fatalf("%s: exports differ:\n%s\n%s", what, ea, eb)
		}
	}
	same("the load's variable", recycled.Var(ttVars), fresh.Var(ttVars))
	for n, xs := range base {
		same(fmt.Sprintf("base formula %d", n), xs[0], xs[1])
		same(fmt.Sprintf("negated base formula %d", n), recycled.Not(xs[0]), fresh.Not(xs[1]))
	}
	rng = rand.New(rand.NewSource(23))
	for n := 0; n < 2000; n++ {
		xs, _ := tabledFormula(rng, fs)
		same(fmt.Sprintf("formula %d", n), xs[0], xs[1])
	}
	if len(recycled.bdd.unique) < 4*len(fresh.bdd.unique) || len(recycled.bdd.unique) != dirty {
		t.Fatalf("unique table of %d slots recycled (%d after the replay) against %d fresh; the test needs a recycled table kept at least 4× larger",
			dirty, len(recycled.bdd.unique), len(fresh.bdd.unique))
	}
}

// ttIndex is the truth-table index of an assignment (absent = true).
func ttIndex(asn Assignment) int {
	idx := 1<<ttVars - 1
	for v, up := range asn {
		if !up {
			idx &^= 1 << (ttVars - 1 - int(v))
		}
	}
	return idx
}

func (t truthTable) at(idx int) bool { return t[idx/64]>>(idx%64)&1 == 1 }

// TestOrderChangesNoAnswer pins what a variable order may and may not
// move. The formulas of TestEvictionsChangeNothing are built under the
// natural order, its reverse and a seeded shuffle: every answer equals
// the truth table's, so the three agree; every Simplify output — whose
// shape does depend on the order — still evaluates like its input under
// all 2¹² assignments (Eval walks the formula, not the BDD under test);
// and the witnesses, which may differ, each satisfy the formula.
func TestOrderChangesNoAnswer(t *testing.T) {
	reversed := make([]Var, ttVars)
	for i := range reversed {
		reversed[i] = Var(ttVars - 1 - i)
	}
	shuffled := append([]Var(nil), reversed...)
	rand.New(rand.NewSource(24)).Shuffle(ttVars, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	names := []string{"natural", "reversed", "shuffled"}
	fs := []*Factory{NewFactory(), NewFactoryOrdered(NewOrder(reversed)), NewFactoryOrdered(NewOrder(shuffled))}

	assignments := make([]Assignment, 1<<ttVars)
	for idx := range assignments {
		asn := Assignment{}
		for v := 0; v < ttVars; v++ {
			asn[Var(v)] = idx>>(ttVars-1-v)&1 == 1
		}
		assignments[idx] = asn
	}

	rng := rand.New(rand.NewSource(23))
	var prev []F
	var prevTT truthTable
	for n := 0; n < 2000; n++ {
		xs, tt := tabledFormula(rng, fs)
		for i, f := range fs {
			x := xs[i]
			if got, want := f.SAT(x), tt != (truthTable{}); got != want {
				t.Fatalf("formula %d, %s order: SAT = %v, truth table says %v", n, names[i], got, want)
			}
			if got, want := f.MinFalse(x), tt.minFalse(); got != want {
				t.Fatalf("formula %d, %s order: MinFalse = %d, truth table says %d", n, names[i], got, want)
			}
			if got, want := f.MinFailuresToViolate(x), tt.not().minFalse(); got != want {
				t.Fatalf("formula %d, %s order: MinFailuresToViolate = %d, truth table says %d", n, names[i], got, want)
			}
			if prev != nil {
				if got, want := f.Equivalent(prev[i], x), prevTT == tt; got != want {
					t.Fatalf("formulas %d and %d, %s order: Equivalent = %v, truth tables say %v", n-1, n, names[i], got, want)
				}
			}
			asn, count, ok := f.MinFailureScenario(x)
			if ok != (tt != truthTable{}) || ok && (count != tt.minFalse() || !tt.at(ttIndex(asn)) ||
				ttVars-bits.OnesCount(uint(ttIndex(asn))) != count) {
				t.Fatalf("formula %d, %s order: MinFailureScenario = %v, %d, %v; truth table's minimum is %d", n, names[i], asn, count, ok, tt.minFalse())
			}
			if asn, ok := f.AnyAssignment(x); ok != (tt != truthTable{}) || ok && !tt.at(ttIndex(asn)) {
				t.Fatalf("formula %d, %s order: AnyAssignment = %v, %v does not satisfy the formula", n, names[i], asn, ok)
			}
			s := f.Simplify(x)
			for idx, asn := range assignments {
				if f.Eval(s, asn) != tt.at(idx) {
					t.Fatalf("formula %d, %s order: Simplify's output %s differs from its input under assignment %012b", n, names[i], f.String(s), idx)
				}
			}
		}
		prev, prevTT = xs, tt
	}

	// A variable past the order's table sits below every ordered one,
	// whichever ordered variable it meets.
	for i, f := range fs {
		for v := Var(0); v < ttVars; v++ {
			root := f.build(f.And(f.Var(ttVars+5), f.Var(v)))
			top := f.bdd.nodes[root>>1]
			if want := f.order.levelOf(v); top.v != want || top.v >= ttVars || f.bdd.nodes[top.hi>>1].v != ttVars+5 {
				t.Fatalf("%s order: a%d ∧ a%d branches on level %d then %d; want level %d (a%d) above the unordered a%d",
					names[i], ttVars+5, v, top.v, f.bdd.nodes[top.hi>>1].v, want, v, ttVars+5)
			}
		}
		if got := f.Simplify(f.And(f.Var(ttVars+5), f.Var(3))); f.String(got) != "a3 & a17" {
			t.Fatalf("%s order: Simplify(a17 & a3) = %s; the unordered variable comes back as itself, innermost", names[i], f.String(got))
		}
	}
}

// TestNewOrderRejectsNonPermutations: two variables on one level, or a
// variable outside the table, is a bug in whoever computed the order.
func TestNewOrderRejectsNonPermutations(t *testing.T) {
	for _, vars := range [][]Var{{0, 0}, {0, 2}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewOrder(%v) did not panic", vars)
				}
			}()
			NewOrder(vars)
		}()
	}
	if got := NewOrder([]Var{2, 0, 1}).Vars(); len(got) != 3 || got[0] != 2 || got[1] != 0 || got[2] != 1 {
		t.Errorf("Vars() = %v, want [2 0 1]", got)
	}
}
