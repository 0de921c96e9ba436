package logic

import "testing"

// TestHotPathAllocBudget keeps the //hoyan:hotpath annotations honest:
// once the arena and memo tables are warm, the annotated constructors and
// BDD kernels must not allocate at all on the hash-cons / memo hit path.
// The hotpathalloc analyzer bans alloc-causing constructs statically;
// this test measures the same budget dynamically, so a regression that
// slips past the syntactic check (e.g. a call that makes an argument
// escape) still fails CI.
func TestHotPathAllocBudget(t *testing.T) {
	f := NewFactory()
	a, b := f.Var(1), f.Var(2)

	// Warm every node the measured loop touches, so the only work left is
	// table hits: And/Or/Not/Var re-intern existing nodes, SAT replays the
	// memoized BDD roots.
	ab := f.And(a, b)
	ob := f.Or(a, b)
	na := f.Not(a)
	if !f.SAT(ab) || !f.SAT(ob) || !f.SAT(na) {
		t.Fatal("warmup formulas unexpectedly unsatisfiable")
	}
	// The kernel's own two hits, under the formula layer's root memo: an
	// apply the computed cache still holds, and an mk of a node the unique
	// table holds.
	s := f.bdd
	ra, rb, rab := f.build(a), f.build(b), f.build(ab)
	key := uint64(min(ra, rb))<<32 | uint64(max(ra, rb))
	if s.cacheSlot(key).key != key {
		t.Fatal("the warm conjunction is not in the computed cache")
	}
	top := s.nodes[rab>>1]
	lo, hi := s.cofactors(rab)

	allocs := testing.AllocsPerRun(1000, func() {
		if f.And(a, b) != ab || f.Or(a, b) != ob || f.Not(a) != na {
			t.Error("hash-consing no longer canonical")
		}
		if f.Var(1) != a {
			t.Error("Var cache miss for a warm variable")
		}
		if !f.SAT(ab) {
			t.Error("memoized SAT changed its answer")
		}
		if s.apply(ra, rb) != rab {
			t.Error("computed-cache hit changed its answer")
		}
		if s.mk(top.v, lo, hi) != rab {
			t.Error("unique-table hit changed its answer")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm hot-path operations allocate %v times per run, want 0", allocs)
	}

	// Recycle keeps every table: emptying a factory that has a solver space
	// and a variable cache allocates nothing.
	if allocs := testing.AllocsPerRun(100, f.Recycle); allocs != 0 {
		t.Fatalf("Recycle allocates %v times per call, want 0", allocs)
	}
	// Nor does recycling to a base, once Mark has copied it.
	f.SAT(f.And(f.Var(1), f.Not(f.Var(2))))
	f.Mark()
	if allocs := testing.AllocsPerRun(100, func() {
		f.SAT(f.Or(f.Var(3), f.Var(4)))
		f.Recycle()
	}); allocs != 0 {
		t.Fatalf("Recycle to a base allocates %v times per call, want 0", allocs)
	}
}
