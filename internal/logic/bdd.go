package logic

import "math"

// bddSpace is a reduced ordered BDD universe with complement edges
// (Brace, Rudell and Bryant, DAC 1990), attached to a Factory. An edge is
// id<<1 | c: node id, complemented when c is 1. Node 0 is the one
// terminal, False, so edge 0 is False and edge 1 is True. A decision
// node's hi edge is never complemented (mk), which keeps every function
// one edge: f and ¬f are the same node under the two bits, negation is
// e^1, and two edges are equal exactly when their functions are.
//
// It knows levels, not variables: a node's v is the position of its
// variable in the factory's Order (0 on top), written by build where a
// variable enters and read back through Order.varAt where one leaves
// (extract, AnyAssignment, MinFailureScenario). Nothing between the two —
// mk, apply, minFalse, grow — can tell which order it runs under, so
// there is one kernel and the natural order is the Order with no table.
type bddSpace struct {
	// nodes[i] for i >= 1 is a decision node; 0 is the terminal. Ids are
	// handed out in creation order and nothing below depends on how large
	// any table is or on what the cache still holds.
	nodes []bddNode
	// side[i] holds what is memoized per node and polarity; grown with
	// nodes by mk.
	side []bddSide
	// unique is the open-addressed hash-consing table over nodes: a slot
	// holds a node id (0 = empty; the terminal is never interned) and a
	// probe compares against the arena. len is a power of two, kept under
	// 2/3 full.
	unique []int32
	// cache is the computed cache of apply: direct-mapped, a colliding
	// result overwrites, len(unique)/cacheShare slots. Losing an entry
	// costs a recomputation whose every mk is a unique-table hit — the
	// result's nodes exist since the first computation — so eviction
	// creates no node and changes no id.
	cache []applyEntry
	// base is side as the factory's Mark copied it: the decision nodes
	// below len(base) are the base, and recycle restores their memos.
	// Without a Mark it is the terminal's.
	base []bddSide
}

// bddNode is a decision node: lo and hi are edges, hi never complemented.
type bddNode struct {
	v      Var // the level branched on, not the variable: see bddSpace
	lo, hi int32
}

// bddSide is the per-node memo record, indexed by the polarity of the
// edge asked about: [c] memoizes the function of edge id<<1 | c. Every
// field's zero value means "not computed", which no computed value of a
// decision node is.
type bddSide struct {
	minFalse [2]int32 // minFalse(edge)+1; a decision node's function is satisfiable
	extract  [2]F     // Simplify's formula for the edge, never a constant
}

// applyEntry caches apply(a, b) = r under key a<<32 | b with a < b.
// Operands are >= 2 after the terminal short-circuits, so key 0 never
// occurs and marks an empty slot.
type applyEntry struct {
	key uint64
	r   int32
}

// cacheShare is how many unique-table slots there are per computed-cache
// slot. The hits of a condition build are recent results: on the four
// benchmark sweeps a cache this size misses 0.4–2.4 % more lookups than
// one slot per unique slot does (EXPERIMENTS.md, "Solver kernel"), for a
// third less table memory to zero and to miss in.
const cacheShare = 4

const (
	bddFalse int32 = 0
	bddTrue  int32 = 1
)

// bddRoom is how many nodes a solver space has room for when it is
// created. Executors recycle their factories (Factory.Recycle), so a
// space grows to its working size once per executor, not once per
// computation, and this is only where that growth starts. One room for
// every factory: a simulation's (where a smaller start allocates the
// tables in between on top, 1.5 MB more per class past 2¹⁵ nodes) and an
// IGP memo goroutine's alike (EXPERIMENTS.md, "Factory recycling").
const bddRoom = 1 << 15

// newBDDSpace returns an empty space with room for initial nodes before
// its tables grow.
func newBDDSpace(initial int) *bddSpace {
	slots := tableSize(initial)
	return &bddSpace{
		nodes:  make([]bddNode, 1, arenaRoom(slots)),
		side:   make([]bddSide, 1, arenaRoom(slots)),
		unique: make([]int32, slots),
		cache:  make([]applyEntry, slots/cacheShare),
		base:   make([]bddSide, 1),
	}
}

// recycle truncates the space to its base (Factory.Recycle): the arena
// to the base's nodes, their memos to what the Mark saw, the unique table
// to exactly those nodes, and the computed cache to nothing.
//
//hoyan:hotpath
func (s *bddSpace) recycle() {
	s.nodes = s.nodes[:len(s.base)]
	s.side = s.side[:len(s.base)]
	copy(s.side, s.base)
	clear(s.unique)
	s.refillUnique()
	clear(s.cache)
}

// mk returns the edge of the function "if level v then hi else lo",
// interning its node in the unique table. A complemented hi is stored as
// the complement of the node with both children flipped, so no stored hi
// is complemented. The appends stay within capacity: all allocation is
// in grow.
//
//hoyan:hotpath
func (s *bddSpace) mk(v Var, lo, hi int32) int32 {
	if lo == hi {
		return lo
	}
	c := hi & 1
	lo, hi = lo^c, hi^c
	mask := uint64(len(s.unique) - 1)
	i := hash3(uint64(v), uint64(lo), uint64(hi)) & mask
	for {
		id := s.unique[i]
		if id == 0 {
			break
		}
		if n := &s.nodes[id]; n.v == v && n.lo == lo && n.hi == hi {
			return id<<1 | c
		}
		i = (i + 1) & mask
	}
	id := int32(len(s.nodes))
	s.nodes = append(s.nodes, bddNode{v: v, lo: lo, hi: hi})
	s.side = append(s.side, bddSide{})
	s.unique[i] = id
	if len(s.nodes)*3 >= len(s.unique)*2 {
		s.grow()
	}
	return id<<1 | c
}

// grow doubles the unique table and, with it, the arena's room and the
// computed cache. The table holds exactly the decision nodes of the
// arena, so it is refilled from there; the cache's surviving entries
// move to their new slots.
func (s *bddSpace) grow() {
	s.unique = make([]int32, 2*len(s.unique))
	s.nodes = append(make([]bddNode, 0, arenaRoom(len(s.unique))), s.nodes...)
	s.side = append(make([]bddSide, 0, arenaRoom(len(s.unique))), s.side...)
	s.refillUnique()
	old := s.cache
	s.cache = make([]applyEntry, len(s.unique)/cacheShare)
	for _, e := range old {
		if e.key != 0 {
			*s.cacheSlot(e.key) = e
		}
	}
}

// refillUnique enters every decision node of the arena into the empty
// unique table.
//
//hoyan:hotpath
func (s *bddSpace) refillUnique() {
	mask := uint64(len(s.unique) - 1)
	for id := 1; id < len(s.nodes); id++ {
		n := &s.nodes[id]
		i := hash3(uint64(n.v), uint64(n.lo), uint64(n.hi)) & mask
		for s.unique[i] != 0 {
			i = (i + 1) & mask
		}
		s.unique[i] = int32(id)
	}
}

// apply is the conjunction of two edges, the Shannon-expansion core of
// every BDD operation: a ∨ b is ¬apply(¬a, ¬b), so one computed cache
// serves both operators and a result cached for one answers the other.
// It allocates nothing itself; mk under it only when the tables double.
//
//hoyan:hotpath
func (s *bddSpace) apply(a, b int32) int32 {
	switch {
	case a == b || b == bddTrue:
		return a
	case a == bddTrue:
		return b
	case a == bddFalse || b == bddFalse || a == b^1:
		return bddFalse
	}
	if a > b {
		a, b = b, a
	}
	key := uint64(a)<<32 | uint64(b)
	if e := s.cacheSlot(key); e.key == key {
		return e.r
	}
	// Expand on the smaller top variable; an operand that does not branch
	// on it is its own cofactor both ways. A complemented edge's
	// cofactors are its node's, complemented.
	na, nb := &s.nodes[a>>1], &s.nodes[b>>1]
	ca, cb := a&1, b&1
	v, alo, ahi, blo, bhi := na.v, na.lo^ca, na.hi^ca, nb.lo^cb, nb.hi^cb
	switch {
	case na.v < nb.v:
		blo, bhi = b, b
	case nb.v < na.v:
		v, alo, ahi = nb.v, a, a
	}
	r := s.mk(v, s.apply(alo, blo), s.apply(ahi, bhi))
	// The recursion may have doubled the cache: look the slot up again.
	*s.cacheSlot(key) = applyEntry{key: key, r: r}
	return r
}

// cacheSlot is where the computed cache holds key, if it holds it.
//
//hoyan:hotpath
func (s *bddSpace) cacheSlot(key uint64) *applyEntry {
	return &s.cache[mix64(key)&uint64(len(s.cache)-1)]
}

// cofactors returns the lo and hi edges of decision edge e.
func (s *bddSpace) cofactors(e int32) (lo, hi int32) {
	n := &s.nodes[e>>1]
	return n.lo ^ e&1, n.hi ^ e&1
}

// build converts a formula to its BDD edge, memoized per formula node so
// the incremental condition-building of the simulation amortizes well.
func (f *Factory) build(x F) int32 {
	n := &f.nodes[x]
	if n.root != 0 {
		return n.root - 1
	}
	if f.bdd == nil {
		f.bdd = newBDDSpace(bddRoom)
	}
	s := f.bdd
	var r int32
	switch n.k {
	case kConst:
		if x == True {
			r = bddTrue
		} else {
			r = bddFalse
		}
	case kVar:
		r = s.mk(f.order.levelOf(n.v), bddFalse, bddTrue)
	case kNot:
		r = f.build(n.a) ^ 1
	case kAnd:
		r = s.apply(f.build(n.a), f.build(n.b))
	default:
		r = s.apply(f.build(n.a)^1, f.build(n.b)^1) ^ 1
	}
	n.root = r + 1
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

// minFalse is MinFalse of edge e, memoized per node and polarity.
func (s *bddSpace) minFalse(e int32) int {
	switch e {
	case bddFalse:
		return Unfailable
	case bddTrue:
		return 0
	}
	memo := &s.side[e>>1].minFalse[e&1]
	if *memo != 0 {
		return int(*memo - 1)
	}
	lo, hi := s.cofactors(e)
	// min(hi, lo+1): taking the variable true (link up) is free, false
	// is one failure; lo+1 <= hi iff lo < hi, Unfailable included.
	c := s.minFalse(hi)
	if l := s.minFalse(lo); l < c {
		c = l + 1
	}
	*memo = int32(c + 1)
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
	for e := root; e > bddTrue; {
		v := f.order.varAt(s.nodes[e>>1].v)
		lo, hi := s.cofactors(e)
		if hi != bddFalse {
			asn[v] = true
			e = hi
		} else {
			asn[v] = false
			e = lo
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
	for e := root; e > bddTrue; {
		v := f.order.varAt(s.nodes[e>>1].v)
		lo, hi := s.cofactors(e)
		costHi, costLo := s.minFalse(hi), s.minFalse(lo)
		if costLo != Unfailable {
			costLo++
		}
		if costHi <= costLo {
			asn[v] = true
			e = hi
		} else {
			asn[v] = false
			e = lo
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

// BDDSize returns the number of decision nodes x's BDD has without
// complement edges under the factory's variable order: its distinct
// non-constant subfunctions, one per (node, polarity) pair reached. It is
// a compactness metric of the condition-simplification ablation, and
// this count is the textbook ROBDD size whatever the kernel shares.
func (f *Factory) BDDSize(x F) int {
	root := f.build(x)
	if root <= bddTrue {
		return 0
	}
	seen := map[int32]bool{}
	var walk func(int32)
	s := f.bdd
	walk = func(e int32) {
		if e <= bddTrue || seen[e] {
			return
		}
		seen[e] = true
		lo, hi := s.cofactors(e)
		walk(lo)
		walk(hi)
	}
	walk(root)
	return len(seen)
}

// Simplify returns a formula equivalent to x that is no longer than x,
// extracted from x's BDD by Shannon expansion — the top variable of the
// factory's order outermost, so the order decides its shape. This
// implements the "simplifying condition formulas" memory optimization of
// §5.6: a condition that passed through many derivation steps often
// collapses to a handful of literals.
func (f *Factory) Simplify(x F) F {
	root := f.build(x)
	switch root {
	case bddFalse:
		return False
	case bddTrue:
		return True
	}
	extracted := f.extract(root)
	if f.Len(extracted) < f.Len(x) {
		return extracted
	}
	return x
}

// extract is memoized per BDD node and polarity for the life of the
// space: the extraction of an edge is a pure function of the boolean
// function it denotes — the same recursion over the same cofactors that a
// BDD without complement edges would walk from its node for that function
// — and repeated Simplify calls over overlapping conditions — the common
// case inside one simulation — reuse it instead of re-walking shared
// subgraphs. f and ¬f share a node but not an extraction.
func (f *Factory) extract(e int32) F {
	switch e {
	case bddFalse:
		return False
	case bddTrue:
		return True
	}
	s := f.bdd
	if r := s.side[e>>1].extract[e&1]; r != 0 {
		return r
	}
	elo, ehi := s.cofactors(e)
	v := f.Var(f.order.varAt(s.nodes[e>>1].v))
	hi := f.extract(ehi)
	lo := f.extract(elo)
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
	s.side[e>>1].extract[e&1] = r
	return r
}
