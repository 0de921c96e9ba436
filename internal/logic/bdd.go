package logic

import "math"

// bddSpace is a reduced ordered BDD universe attached to a Factory.
// Variable order is the natural Var order, which matches the order link
// variables are allocated while walking the topology — adjacent links get
// adjacent variables, which keeps path-shaped conditions narrow.
type bddSpace struct {
	// nodes[i] for i >= 2 is a decision node; 0 and 1 are the terminals.
	vars   []Var
	los    []int32
	his    []int32
	unique *idTable
	// andMemo/orMemo cache apply results under key a<<32|b with a<=b;
	// operands are >=2 after terminal short-circuits, so 0 never occurs.
	andMemo *u64Map
	orMemo  *u64Map
	// built[f] is the BDD root of formula f, or -1.
	built []int32
	// minFalseMemo[n] caches the min-cost DP per node (-1 = unset).
	minFalseMemo []int32
	// negMemo[n] caches negation per node (0 = unset; node 0 never needs
	// a cache entry since negate() short-circuits terminals).
	negMemo []int32
	// extractMemo caches Simplify's BDD→formula extraction per node. The
	// extraction of a node is a pure function of the (immutable) node, so
	// the cache persists for the life of the space; repeated Simplify
	// calls over overlapping conditions — the common case inside one
	// simulation — reuse it instead of re-walking shared subgraphs.
	extractMemo map[int32]F
}

const (
	bddFalse int32 = 0
	bddTrue  int32 = 1
)

const (
	opAnd uint8 = iota
	opOr
)

// bddRoomWAN sizes a simulation's solver tables up front: growth
// rehashing showed up at >10% of profile time when starting small.
// bddRoomScratch is the floor for a factory that lives for one small
// computation (NewFactorySized): there the 2.3 MB the WAN-scale tables
// zero on first use can cost more than the computation.
const (
	bddRoomWAN     = 1 << 15
	bddRoomScratch = 1 << 9
)

// newBDDSpace returns an empty space with room for initial nodes before
// its tables grow.
func newBDDSpace(initial int) *bddSpace {
	return &bddSpace{
		vars:    make([]Var, 2, initial),
		los:     make([]int32, 2, initial),
		his:     make([]int32, 2, initial),
		unique:  newIDTable(initial),
		andMemo: newU64Map(initial),
		orMemo:  newU64Map(initial),
		negMemo: make([]int32, 2, initial),
	}
}

//hoyan:hotpath
func (s *bddSpace) nodeHash(n int32) uint64 {
	return hash3(uint64(s.vars[n]), uint64(s.los[n]), uint64(s.his[n]))
}

// mk interns a BDD node in the unique table; allocation is limited to
// the amortized arena appends.
//
//hoyan:hotpath
func (s *bddSpace) mk(v Var, lo, hi int32) int32 {
	if lo == hi {
		return lo
	}
	h := hash3(uint64(v), uint64(lo), uint64(hi))
	id, slot, ok := s.unique.lookup(h, func(n int32) bool {
		return s.vars[n] == v && s.los[n] == lo && s.his[n] == hi
	})
	if ok {
		return id
	}
	id = int32(len(s.vars))
	s.vars = append(s.vars, v)
	s.los = append(s.los, lo)
	s.his = append(s.his, hi)
	s.negMemo = append(s.negMemo, 0)
	if s.unique.needsGrow() {
		s.unique.grow(s.nodeHash)
		s.unique.insert(s.probeSlot(h, id), id)
	} else {
		s.unique.insert(slot, id)
	}
	return id
}

// probeSlot finds the insert slot for a fresh id after a grow.
func (s *bddSpace) probeSlot(h uint64, id int32) int {
	_, slot, ok := s.unique.lookup(h, func(n int32) bool { return n == id })
	if ok {
		panic("logic: duplicate BDD node after grow")
	}
	return slot
}

// apply is the Shannon-expansion core of every BDD operation; it runs
// once per (op, a, b) triple and must stay allocation-free outside the
// memo table's amortized growth.
//
//hoyan:hotpath
func (s *bddSpace) apply(op uint8, a, b int32) int32 {
	switch op {
	case opAnd:
		if a == bddFalse || b == bddFalse {
			return bddFalse
		}
		if a == bddTrue {
			return b
		}
		if b == bddTrue {
			return a
		}
		if a == b {
			return a
		}
	case opOr:
		if a == bddTrue || b == bddTrue {
			return bddTrue
		}
		if a == bddFalse {
			return b
		}
		if b == bddFalse {
			return a
		}
		if a == b {
			return a
		}
	}
	if a > b {
		a, b = b, a
	}
	memo := s.andMemo
	if op == opOr {
		memo = s.orMemo
	}
	key := uint64(a)<<32 | uint64(b)
	if r, ok := memo.get(key); ok {
		return r
	}
	va, vb := s.topVar(a), s.topVar(b)
	v := va
	if vb < v {
		v = vb
	}
	alo, ahi := s.cofactor(a, v)
	blo, bhi := s.cofactor(b, v)
	r := s.mk(v, s.apply(op, alo, blo), s.apply(op, ahi, bhi))
	memo.put(key, r)
	return r
}

//hoyan:hotpath
func (s *bddSpace) topVar(n int32) Var {
	if n <= bddTrue {
		return math.MaxInt32
	}
	return s.vars[n]
}

//hoyan:hotpath
func (s *bddSpace) cofactor(n int32, v Var) (lo, hi int32) {
	if n <= bddTrue || s.vars[n] != v {
		return n, n
	}
	return s.los[n], s.his[n]
}

// negate computes ¬n by swapping terminals. Without complement edges this
// is a linear walk; the cache is global to the space (negation is
// idempotent, so staleness is impossible).
//
//hoyan:hotpath
func (s *bddSpace) negate(n int32) int32 {
	switch n {
	case bddFalse:
		return bddTrue
	case bddTrue:
		return bddFalse
	}
	if r := s.negMemo[n]; r != 0 {
		return r
	}
	r := s.mk(s.vars[n], s.negate(s.los[n]), s.negate(s.his[n]))
	s.negMemo[n] = r
	// mk may have appended nodes and grown negMemo; n's slot is stable.
	s.negMemo[n] = r
	return r
}

// build converts a formula to its BDD root, memoized per formula node so
// the incremental condition-building of the simulation amortizes well.
func (f *Factory) build(x F) int32 {
	if f.bdd == nil {
		f.bdd = newBDDSpace(f.bddRoom)
	}
	s := f.bdd
	for int(x) >= len(s.built) {
		s.built = append(s.built, -1)
	}
	if r := s.built[x]; r >= 0 {
		return r
	}
	var r int32
	n := f.nodes[x]
	switch n.k {
	case kConst:
		if x == True {
			r = bddTrue
		} else {
			r = bddFalse
		}
	case kVar:
		r = s.mk(n.v, bddFalse, bddTrue)
	case kNot:
		r = s.negate(f.build(n.a))
	case kAnd:
		r = s.apply(opAnd, f.build(n.a), f.build(n.b))
	default:
		r = s.apply(opOr, f.build(n.a), f.build(n.b))
	}
	for int(x) >= len(s.built) {
		s.built = append(s.built, -1)
	}
	s.built[x] = r
	return r
}

// SAT reports whether x has at least one satisfying assignment.
func (f *Factory) SAT(x F) bool { return f.build(x) != bddFalse }

// Impossible reports whether x is unsatisfiable — the "dropping impossible
// conditions" prune of §5.6.
func (f *Factory) Impossible(x F) bool { return !f.SAT(x) }

// Unfailable is returned by MinFalse when no assignment satisfies the
// formula (so no number of failures reaches it).
const Unfailable = math.MaxInt32

// MinFalse returns the minimum number of variables that must be assigned
// false over all satisfying assignments of x, or Unfailable when x is
// unsatisfiable. In topology-condition terms: the fewest link failures under
// which the condition can hold. MinFalse(x) > k is the exact form of the
// "more than k failures" prune.
func (f *Factory) MinFalse(x F) int {
	root := f.build(x)
	return f.bdd.minFalse(root)
}

func (s *bddSpace) minFalse(n int32) int {
	switch n {
	case bddFalse:
		return Unfailable
	case bddTrue:
		return 0
	}
	for int(n) >= len(s.minFalseMemo) {
		s.minFalseMemo = append(s.minFalseMemo, -1)
	}
	if c := s.minFalseMemo[n]; c >= 0 {
		return int(c)
	}
	hi := s.minFalse(s.his[n]) // var true: link up, free
	lo := s.minFalse(s.los[n]) // var false: one failure
	if lo != Unfailable {
		lo++
	}
	c := hi
	if lo < c {
		c = lo
	}
	for int(n) >= len(s.minFalseMemo) {
		s.minFalseMemo = append(s.minFalseMemo, -1)
	}
	s.minFalseMemo[n] = int32(c)
	return c
}

// MinFailuresToViolate returns the smallest number of link failures that
// falsifies x (e.g. the reachability disjunction V = R(r1) ∨ … ∨ R(rn)),
// or Unfailable when x is a tautology. This is the query the paper answers
// with Z3 plus a MaxSAT-style minimization.
func (f *Factory) MinFailuresToViolate(x F) int {
	return f.MinFalse(f.Not(x))
}

// AnyAssignment returns one satisfying assignment of x restricted to the
// variables the BDD actually branches on, with ok=false when unsatisfiable.
// Unmentioned variables may take any value; callers treat them as true.
func (f *Factory) AnyAssignment(x F) (Assignment, bool) {
	root := f.build(x)
	if root == bddFalse {
		return nil, false
	}
	s := f.bdd
	asn := Assignment{}
	n := root
	for n > bddTrue {
		if s.his[n] != bddFalse {
			asn[s.vars[n]] = true
			n = s.his[n]
		} else {
			asn[s.vars[n]] = false
			n = s.los[n]
		}
	}
	return asn, true
}

// MinFailureScenario returns a satisfying assignment of x with the fewest
// false variables, along with that count. ok=false when x is unsatisfiable.
// Used to report the concrete minimal failure case to operators.
func (f *Factory) MinFailureScenario(x F) (Assignment, int, bool) {
	root := f.build(x)
	if root == bddFalse {
		return nil, 0, false
	}
	s := f.bdd
	asn := Assignment{}
	n := root
	for n > bddTrue {
		hi := s.minFalse(s.his[n])
		lo := s.minFalse(s.los[n])
		if lo != Unfailable {
			lo++
		}
		if hi <= lo {
			asn[s.vars[n]] = true
			n = s.his[n]
		} else {
			asn[s.vars[n]] = false
			n = s.los[n]
		}
	}
	return asn, s.minFalse(root), true
}

// Equivalent reports whether a and b denote the same boolean function.
func (f *Factory) Equivalent(a, b F) bool {
	return f.build(a) == f.build(b)
}

// Implies reports whether a ⇒ b holds.
func (f *Factory) Implies(a, b F) bool {
	return f.Impossible(f.And(a, f.Not(b)))
}

// BDDSize returns the number of decision nodes in x's BDD, a compactness
// metric used by the condition-simplification ablation.
func (f *Factory) BDDSize(x F) int {
	root := f.build(x)
	if root <= bddTrue {
		return 0
	}
	seen := map[int32]bool{}
	var walk func(int32)
	s := f.bdd
	walk = func(n int32) {
		if n <= bddTrue || seen[n] {
			return
		}
		seen[n] = true
		walk(s.los[n])
		walk(s.his[n])
	}
	walk(root)
	return len(seen)
}

// Simplify returns a formula equivalent to x that is no longer than x,
// extracted from x's BDD by Shannon expansion. This implements the
// "simplifying condition formulas" memory optimization of §5.6: a condition
// that passed through many derivation steps often collapses to a handful of
// literals.
func (f *Factory) Simplify(x F) F {
	root := f.build(x)
	switch root {
	case bddFalse:
		return False
	case bddTrue:
		return True
	}
	if f.bdd.extractMemo == nil {
		f.bdd.extractMemo = make(map[int32]F, 1024)
	}
	extracted := f.extract(root, f.bdd.extractMemo)
	if f.Len(extracted) < f.Len(x) {
		return extracted
	}
	return x
}

func (f *Factory) extract(n int32, memo map[int32]F) F {
	switch n {
	case bddFalse:
		return False
	case bddTrue:
		return True
	}
	if r, ok := memo[n]; ok {
		return r
	}
	s := f.bdd
	v := f.Var(s.vars[n])
	hi := f.extract(s.his[n], memo)
	lo := f.extract(s.los[n], memo)
	// ite(v, hi, lo) with the usual special cases to keep output short.
	var r F
	switch {
	case hi == True && lo == False:
		r = v
	case hi == False && lo == True:
		r = f.Not(v)
	case hi == True:
		r = f.Or(v, lo)
	case lo == False:
		r = f.And(v, hi)
	case hi == False:
		r = f.And(f.Not(v), lo)
	case lo == True:
		r = f.Or(f.Not(v), hi)
	default:
		r = f.Or(f.And(v, hi), f.And(f.Not(v), lo))
	}
	memo[n] = r
	return r
}
