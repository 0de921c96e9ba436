package logic

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Var identifies a boolean variable. In topology conditions a Var is a link
// aliveness bit: true means the link is up. Route-racing encodings allocate
// Vars for route-selection indicators instead.
type Var int32

// F references a hash-consed formula node inside a Factory. The zero value
// is the constant False; True is always node 1. F values from different
// factories must not be mixed.
type F int32

// Reserved formula references present in every Factory.
const (
	False F = 0
	True  F = 1
)

type kind uint8

const (
	kConst kind = iota
	kVar
	kNot
	kAnd
	kOr
)

type node struct {
	k kind
	// up is the node's value with every variable true (all links up):
	// Eval under an empty assignment, settled when the node is made from
	// its operands' and read back in O(1). It fills padding after k.
	up   bool
	v    Var // kVar only
	a, b F   // kNot uses a; kAnd/kOr use a,b
	size int32
	root int32 // BDD root + 1 once Factory.build has converted the node, 0 before
}

// Factory owns a universe of hash-consed formula nodes. Structural sharing
// means equal formulas have equal F references, so equality checks and the
// local simplifications in the constructors are O(1).
type Factory struct {
	nodes []node
	// intern is the open-addressed hash-consing table over nodes: a slot
	// holds an F (0 = empty; the constants are never interned) and a probe
	// compares against nodes. len is a power of two, kept under 2/3 full.
	intern []F
	vars   []F // cache of variable nodes indexed by Var

	bdd      *bddSpace // lazily created solver space
	order    *Order    // the solver's variable order; translated in build and on the way out
	recycles uint64    // Recycle calls so far

	// base and baseVars are nodes and vars as Mark copied them, BDD
	// roots included; Recycle restores them. Without a Mark, base is the
	// two constants and baseVars is empty.
	base     []node
	baseVars []F

	// seen is Export's table of the nodes it has keyed and stored,
	// indexed by F and grown to len(nodes) by each Export. An entry is
	// live only while its gen equals seenGen, which every Export advances,
	// so neither an Export nor a Recycle (which hands the same ids out
	// again) clears the table; only a wrap of the counter does. keys holds
	// the structural keys of the nodes the current Export reaches, one
	// per node it keyed, where seen's entries point.
	seen    []exportSlot
	seenGen uint32
	keys    []uint64
	// need and ids are ImportRoots' scratch, one entry per node of the
	// Portable being imported.
	need []bool
	ids  []F
}

type nodeKey struct {
	k    kind
	v    Var
	a, b F
}

// NewFactory returns an empty formula universe containing only the
// constants, whose solver branches on variables in their natural order.
func NewFactory() *Factory { return NewFactoryOrdered(nil) }

// NewFactoryOrdered is NewFactory with the solver's variable order given
// (nil is the natural order). Formulas, and so everything exported from
// the factory, range over the same variables under any order.
func NewFactoryOrdered(o *Order) *Factory {
	if o == nil {
		o = natural
	}
	f := &Factory{
		nodes:  make([]node, 2, arenaRoom(tableSize(1024))),
		intern: make([]F, tableSize(1024)),
		order:  o,
		base:   []node{{k: kConst, size: 1}, {k: kConst, size: 1, up: true}},
	}
	copy(f.nodes, f.base)
	return f
}

// Mark makes the factory's current contents its base: every later
// Recycle returns the factory to exactly this state — the same nodes,
// BDD roots and per-node memos — instead of to the constants. A holder
// builds what every computation of its own shares (a simulator's session
// conditions) once, marks, and recycles between computations; F values
// and BDD roots of the base stay valid across those Recycles. Mark
// copies the arenas' memo fields, so it allocates; Recycle does not.
func (f *Factory) Mark() {
	f.base = append(f.base[:0], f.nodes...)
	f.baseVars = append(f.baseVars[:0], f.vars...)
	if s := f.bdd; s != nil {
		s.base = append(s.base[:0], s.side...)
	}
}

// Recycle returns the factory in place to its base (Mark; the constants
// when there is none): afterwards it holds the base and nothing else,
// under the same order, and hands out the ids, BDD roots, Simplify
// outputs and Export bytes a new factory that built the same base would
// for the same calls — ids follow creation order alone, the base's memos
// are restored to what they were at the Mark, and neither a table's size
// nor what the computed cache holds decides anything (TestRecycleIsFresh,
// TestRecycleToMarkIsFresh). Every table and arena keeps its capacity, so
// an executor that recycles one factory between computations of one size
// allocates solver memory once, not once per computation. Every F and
// BDD root handed out since the Mark is void; Recycles tells a holder so.
//
//hoyan:hotpath
func (f *Factory) Recycle() {
	f.nodes = f.nodes[:len(f.base)]
	copy(f.nodes, f.base)
	clear(f.intern)
	f.refillIntern()
	clear(f.vars[copy(f.vars, f.baseVars):])
	if s := f.bdd; s != nil {
		s.recycle()
	}
	f.recycles++
}

// Recycles counts the factory's Recycle calls: a formula taken from the
// factory while it read n is valid while it still reads n.
func (f *Factory) Recycles() uint64 { return f.recycles }

// SolverNodes reports how many BDD decision nodes the factory's solver
// space holds. The kernel has complement edges, so a function and its
// negation are one node: this counts nodes, not the functions they
// denote (BDDSize counts those of one formula).
func (f *Factory) SolverNodes() int {
	if f.bdd == nil {
		return 0
	}
	return len(f.bdd.nodes) - 1
}

// NumNodes reports how many distinct formula nodes exist in the factory,
// a proxy for the memory the conditions of one simulation consume.
func (f *Factory) NumNodes() int { return len(f.nodes) }

//hoyan:hotpath
func keyHash(key nodeKey) uint64 {
	return hash3(uint64(key.k)<<32|uint64(uint32(key.v)), uint64(key.a), uint64(key.b))
}

// mk interns a node, returning the existing id on a hash-cons hit. It
// runs once per constructed formula node; the append stays within
// capacity, all allocation is in growIntern.
//
//hoyan:hotpath
func (f *Factory) mk(key nodeKey, size int32) F {
	mask := uint64(len(f.intern) - 1)
	i := keyHash(key) & mask
	for {
		id := f.intern[i]
		if id == 0 {
			break
		}
		if n := &f.nodes[id]; n.k == key.k && n.v == key.v && n.a == key.a && n.b == key.b {
			return id
		}
		i = (i + 1) & mask
	}
	id := F(len(f.nodes))
	f.nodes = append(f.nodes, node{k: key.k, up: f.upOf(key), v: key.v, a: key.a, b: key.b, size: size})
	f.intern[i] = id
	if len(f.nodes)*3 >= len(f.intern)*2 {
		f.growIntern()
	}
	return id
}

// upOf is node.up of a node made from key: a variable is up, and an
// operator applies to its operands' values.
//
//hoyan:hotpath
func (f *Factory) upOf(key nodeKey) bool {
	switch key.k {
	case kNot:
		return !f.nodes[key.a].up
	case kAnd:
		return f.nodes[key.a].up && f.nodes[key.b].up
	case kOr:
		return f.nodes[key.a].up || f.nodes[key.b].up
	}
	return true
}

// growIntern doubles the interning table and the arena's room. The table
// holds exactly the non-constant nodes of the arena, so it is refilled
// from there.
func (f *Factory) growIntern() {
	f.intern = make([]F, 2*len(f.intern))
	f.nodes = append(make([]node, 0, arenaRoom(len(f.intern))), f.nodes...)
	f.refillIntern()
}

// refillIntern enters every non-constant node of the arena into the
// empty intern table.
//
//hoyan:hotpath
func (f *Factory) refillIntern() {
	mask := uint64(len(f.intern) - 1)
	for id := 2; id < len(f.nodes); id++ {
		n := &f.nodes[id]
		i := keyHash(nodeKey{k: n.k, v: n.v, a: n.a, b: n.b}) & mask
		for f.intern[i] != 0 {
			i = (i + 1) & mask
		}
		f.intern[i] = F(id)
	}
}

// Var returns the formula consisting of the single positive literal v.
//
//hoyan:hotpath
func (f *Factory) Var(v Var) F {
	if int(v) < len(f.vars) && f.vars[v] != 0 {
		return f.vars[v]
	}
	id := f.mk(nodeKey{k: kVar, v: v}, 1)
	for int(v) >= len(f.vars) {
		f.vars = append(f.vars, 0)
	}
	f.vars[v] = id
	return id
}

// NotVar returns ¬v as a formula.
func (f *Factory) NotVar(v Var) F { return f.Not(f.Var(v)) }

// Not returns the negation of a, applying double-negation and constant
// elimination.
//
//hoyan:hotpath
func (f *Factory) Not(a F) F {
	switch a {
	case False:
		return True
	case True:
		return False
	}
	if f.nodes[a].k == kNot {
		return f.nodes[a].a
	}
	return f.mk(nodeKey{k: kNot, a: a}, f.nodes[a].size)
}

// And returns a∧b with local simplifications: identity, annihilator,
// idempotence and complement detection (all O(1) thanks to hash-consing).
//
//hoyan:hotpath
func (f *Factory) And(a, b F) F {
	if a == False || b == False {
		return False
	}
	if a == True {
		return b
	}
	if b == True {
		return a
	}
	if a == b {
		return a
	}
	if f.isComplement(a, b) {
		return False
	}
	if a > b { // canonical order for sharing
		a, b = b, a
	}
	return f.mk(nodeKey{k: kAnd, a: a, b: b}, f.sumSize(a, b))
}

// Or returns a∨b with the dual simplifications of And.
//
//hoyan:hotpath
func (f *Factory) Or(a, b F) F {
	if a == True || b == True {
		return True
	}
	if a == False {
		return b
	}
	if b == False {
		return a
	}
	if a == b {
		return a
	}
	if f.isComplement(a, b) {
		return True
	}
	if a > b {
		a, b = b, a
	}
	return f.mk(nodeKey{k: kOr, a: a, b: b}, f.sumSize(a, b))
}

// AndAll combines fs as a balanced binary tree; the conjunction of
// nothing is True. Balancing keeps the DAG depth logarithmic in len(fs)
// instead of linear, which bounds recursion depth in downstream
// traversals (BDD build, Substitute) and exposes more sharing between
// sibling subtrees than a left fold does.
func (f *Factory) AndAll(fs ...F) F {
	switch len(fs) {
	case 0:
		return True
	case 1:
		return fs[0]
	case 2:
		return f.And(fs[0], fs[1])
	}
	mid := len(fs) / 2
	return f.And(f.AndAll(fs[:mid]...), f.AndAll(fs[mid:]...))
}

// AndAllGuarded returns AndAll(guard, x, v), the same node created in the
// same order, and builds its BDD guard first, as (guard ∧ x) ∧ v, where
// build would conjoin guard with a fresh x ∧ v. A caller that conjoins
// one guard and x with many v (the IGP fixpoint, one v per outgoing link)
// pays the product of guard and x once: every later call finds it in the
// computed cache, and only the conjunction with v is new. BDDs are
// canonical, so the root memoized on the node is the one build would
// reach.
func (f *Factory) AndAllGuarded(guard, x, v F) F {
	r := f.AndAll(guard, x, v)
	if f.nodes[r].root != 0 || f.nodes[r].k != kAnd {
		return r
	}
	g, bx, bv := f.build(guard), f.build(x), f.build(v)
	s := f.bdd
	f.nodes[r].root = s.apply(s.apply(g, bx), bv) + 1
	return r
}

// OrAll combines fs as a balanced binary tree, dual to AndAll; the
// disjunction of nothing is False.
func (f *Factory) OrAll(fs ...F) F {
	switch len(fs) {
	case 0:
		return False
	case 1:
		return fs[0]
	case 2:
		return f.Or(fs[0], fs[1])
	}
	mid := len(fs) / 2
	return f.Or(f.OrAll(fs[:mid]...), f.OrAll(fs[mid:]...))
}

//hoyan:hotpath
func (f *Factory) sumSize(a, b F) int32 {
	s := int64(f.nodes[a].size) + int64(f.nodes[b].size)
	if s > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(s)
}

//hoyan:hotpath
func (f *Factory) isComplement(a, b F) bool {
	na, nb := f.nodes[a], f.nodes[b]
	return (na.k == kNot && na.a == b) || (nb.k == kNot && nb.a == a)
}

// Len reports the syntactic length of the formula counted in literal
// occurrences, the metric Figures 11 and 13 of the paper plot. Constants
// count as one.
func (f *Factory) Len(x F) int { return int(f.nodes[x].size) }

// Vars returns the sorted set of variables occurring in x.
func (f *Factory) Vars(x F) []Var {
	seen := map[F]bool{}
	set := map[Var]bool{}
	var walk func(F)
	walk = func(y F) {
		if seen[y] {
			return
		}
		seen[y] = true
		n := f.nodes[y]
		switch n.k {
		case kVar:
			set[n.v] = true
		case kNot:
			walk(n.a)
		case kAnd, kOr:
			walk(n.a)
			walk(n.b)
		}
	}
	walk(x)
	out := make([]Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Assignment maps variables to truth values. Variables absent from the map
// are treated as true, matching the "all links up unless failed" convention.
type Assignment map[Var]bool

// Eval evaluates x under the assignment. Under an empty one (nil: all
// links up) it reads the value the node settled when it was made, in
// O(1); otherwise it walks x.
func (f *Factory) Eval(x F, asn Assignment) bool {
	if len(asn) == 0 {
		return f.nodes[x].up
	}
	switch x {
	case False:
		return false
	case True:
		return true
	}
	n := f.nodes[x]
	switch n.k {
	case kVar:
		if val, ok := asn[n.v]; ok {
			return val
		}
		return true
	case kNot:
		return !f.Eval(n.a, asn)
	case kAnd:
		return f.Eval(n.a, asn) && f.Eval(n.b, asn)
	default: // kOr
		return f.Eval(n.a, asn) || f.Eval(n.b, asn)
	}
}

// String renders x in infix form, mainly for tests and debugging.
func (f *Factory) String(x F) string {
	var sb strings.Builder
	f.render(&sb, x, 0)
	return sb.String()
}

func (f *Factory) render(sb *strings.Builder, x F, depth int) {
	switch x {
	case False:
		sb.WriteString("false")
		return
	case True:
		sb.WriteString("true")
		return
	}
	n := f.nodes[x]
	switch n.k {
	case kVar:
		fmt.Fprintf(sb, "a%d", n.v)
	case kNot:
		sb.WriteString("!")
		if f.nodes[n.a].k == kAnd || f.nodes[n.a].k == kOr {
			sb.WriteString("(")
			f.render(sb, n.a, depth+1)
			sb.WriteString(")")
		} else {
			f.render(sb, n.a, depth+1)
		}
	case kAnd, kOr:
		op := " & "
		if n.k == kOr {
			op = " | "
		}
		if depth > 0 {
			sb.WriteString("(")
		}
		f.render(sb, n.a, depth+1)
		sb.WriteString(op)
		f.render(sb, n.b, depth+1)
		if depth > 0 {
			sb.WriteString(")")
		}
	}
}

// walkKind exposes structure to sibling packages (sat's Tseitin transform)
// without exporting node internals.
type walkKind uint8

const (
	// WalkConst .. WalkOr classify a node for Walk.
	WalkConst walkKind = iota
	WalkVar
	WalkNot
	WalkAnd
	WalkOr
)

// Shape describes one formula node for external traversals: its kind, its
// variable (for variable nodes) and its children (for connectives).
type Shape struct {
	Kind     walkKind
	Value    bool // kConst only: true for the True node
	Variable Var
	A, B     F
}

// Shape returns the structural description of x.
func (f *Factory) Shape(x F) Shape {
	n := f.nodes[x]
	switch n.k {
	case kConst:
		return Shape{Kind: WalkConst, Value: x == True}
	case kVar:
		return Shape{Kind: WalkVar, Variable: n.v}
	case kNot:
		return Shape{Kind: WalkNot, A: n.a}
	case kAnd:
		return Shape{Kind: WalkAnd, A: n.a, B: n.b}
	default:
		return Shape{Kind: WalkOr, A: n.a, B: n.b}
	}
}

// Substitute replaces every occurrence of the mapped variables in x with
// the given formulas, rebuilding the DAG bottom-up with memoization.
// Used to re-express link-aliveness conditions over router-aliveness
// variables (a router failure downs all its links), which turns router-
// failure queries into the same MinFalse machinery.
func (f *Factory) Substitute(x F, sub map[Var]F) F {
	memo := map[F]F{}
	var rec func(F) F
	rec = func(y F) F {
		switch y {
		case False, True:
			return y
		}
		if r, ok := memo[y]; ok {
			return r
		}
		n := f.nodes[y]
		var r F
		switch n.k {
		case kVar:
			if repl, ok := sub[n.v]; ok {
				r = repl
			} else {
				r = y
			}
		case kNot:
			r = f.Not(rec(n.a))
		case kAnd:
			r = f.And(rec(n.a), rec(n.b))
		default:
			r = f.Or(rec(n.a), rec(n.b))
		}
		memo[y] = r
		return r
	}
	return rec(x)
}
