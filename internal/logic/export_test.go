package logic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceExport is Export with fresh maps per call: a structural key
// per node (a hash of its kind, its variable and its children's keys in
// key order), then the depth-first walk from the roots, children first,
// an And or Or whose operands are both new visiting its lower-key one
// first, each node stored where the walk first reaches it with its
// operands in index order. The dense export table must write exactly
// these bytes.
func referenceExport(f *Factory, roots ...F) *Portable {
	keys := map[F]uint64{False: 0, True: 1}
	var key func(F) uint64
	key = func(x F) uint64 {
		if k, ok := keys[x]; ok {
			return k
		}
		n := f.nodes[x]
		a, b := key(n.a), key(n.b) // an absent operand is False
		keys[x] = hash3(uint64(n.k)<<32|uint64(uint32(n.v)), min(a, b), max(a, b))
		return keys[x]
	}
	p := &Portable{nodes: make([]pnode, 2, 2+len(roots))}
	p.nodes[False] = pnode{k: kConst}
	p.nodes[True] = pnode{k: kConst}
	memo := map[F]int32{False: 0, True: 1}
	var rec func(F) int32
	rec = func(x F) int32 {
		if id, ok := memo[x]; ok {
			return id
		}
		n := f.nodes[x]
		var nd pnode
		switch n.k {
		case kVar:
			nd = pnode{k: kVar, v: n.v}
		case kNot:
			nd = pnode{k: kNot, a: rec(n.a)}
		default:
			a, b := n.a, n.b
			_, doneA := memo[a]
			_, doneB := memo[b]
			if !doneA && !doneB && key(b) < key(a) {
				a, b = b, a
			}
			ia, ib := rec(a), rec(b)
			nd = pnode{k: n.k, a: min(ia, ib), b: max(ia, ib)}
		}
		id := int32(len(p.nodes))
		p.nodes = append(p.nodes, nd)
		memo[x] = id
		return id
	}
	p.roots = make([]int32, len(roots))
	for i, r := range roots {
		p.roots[i] = rec(r)
	}
	return p
}

// setExportGen is the test hook behind the wrap case: it sets the
// factory's export generation, so the next Exports run up to the
// counter's wrap.
func (f *Factory) setExportGen(g uint32) { f.seenGen = g }

// randomRoots builds n random formulas over nvars variables in f, with a
// constant or a repeated root mixed in now and then.
func randomRoots(f *Factory, rng *rand.Rand, n, nvars int) []F {
	roots := make([]F, n)
	for i := range roots {
		switch {
		case rng.Intn(10) == 0:
			roots[i] = F(rng.Intn(2))
		case i > 0 && rng.Intn(8) == 0:
			roots[i] = roots[rng.Intn(i)]
		default:
			roots[i] = randomFormula(f, rng, nvars, 3+rng.Intn(6))
		}
	}
	return roots
}

// TestExportMatchesReference pins Export's bytes to the map-based
// reference above, which keys, orders and numbers nodes by the same rule:
// on random formula DAGs, on several exports in a row from one factory
// (each reading the table the one before stamped), after a Recycle and
// after a recycle back to a Mark (which hand the same ids out again for
// other nodes), and across a forced wrap of the export generation, whose
// stale stamps would otherwise read as live. Run under -race -count=10 by
// `make determinism`.
func TestExportMatchesReference(t *testing.T) {
	same := func(t *testing.T, what string, f *Factory, roots []F) {
		t.Helper()
		want := referenceExport(f, roots...)
		got := f.Export(roots...)
		if !slices.Equal(got.nodes, want.nodes) || !slices.Equal(got.roots, want.roots) {
			t.Fatalf("%s: Export stored %d nodes, roots %v; the reference %d nodes, roots %v",
				what, len(got.nodes), got.roots, len(want.nodes), want.roots)
		}
	}
	rng := rand.New(rand.NewSource(49))

	t.Run("random DAGs in a row", func(t *testing.T) {
		f := NewFactory()
		for i := range 200 {
			same(t, fmt.Sprintf("export %d", i), f, randomRoots(f, rng, 1+rng.Intn(12), 10))
		}
	})

	t.Run("after Recycle", func(t *testing.T) {
		f := NewFactory()
		for i := range 50 {
			same(t, fmt.Sprintf("before recycle %d", i), f, randomRoots(f, rng, 8, 12))
			f.Recycle()
			same(t, fmt.Sprintf("after recycle %d", i), f, randomRoots(f, rng, 8, 12))
		}
	})

	t.Run("after a recycle to a Mark", func(t *testing.T) {
		f := NewFactory()
		base := randomRoots(f, rng, 16, 10)
		f.Mark()
		for i := range 50 {
			roots := append(randomRoots(f, rng, 6, 10), base[i%len(base)])
			same(t, fmt.Sprintf("over the base %d", i), f, roots)
			f.Recycle()
			same(t, fmt.Sprintf("base alone %d", i), f, base)
		}
	})

	t.Run("generation wrap", func(t *testing.T) {
		f := NewFactory()
		roots := randomRoots(f, rng, 10, 10)
		same(t, "first export", f, roots) // stamps generation 1
		f.setExportGen(math.MaxUint32 - 2)
		for i := range 5 {
			// The export after the wrap is generation 1 again: the first
			// export's stamps must be gone, or its nodes read as stored.
			same(t, fmt.Sprintf("export %d across the wrap", i), f, append(randomRoots(f, rng, 3, 10), roots[i]))
		}
	})
}

// rebuild copies x from src into dst through the constructors, children
// first: dst then holds the same formula, made in dst's own history.
// With swap, every And and Or is given its operands the other way round.
func rebuild(src, dst *Factory, x F, swap bool, memo map[F]F) F {
	if x <= True {
		return x
	}
	if y, ok := memo[x]; ok {
		return y
	}
	n := src.nodes[x]
	var y F
	switch n.k {
	case kVar:
		y = dst.Var(n.v)
	case kNot:
		y = dst.Not(rebuild(src, dst, n.a, swap, memo))
	default:
		a, b := rebuild(src, dst, n.a, swap, memo), rebuild(src, dst, n.b, swap, memo)
		if swap {
			a, b = b, a
		}
		if n.k == kAnd {
			y = dst.And(a, b)
		} else {
			y = dst.Or(a, b)
		}
	}
	memo[x] = y
	return y
}

// TestExportIsCanonical pins Export's bytes to the formulas alone: the
// same random roots, built again in a second factory with another
// history, export byte-identical snapshots. The histories are unrelated
// nodes created first (so the roots' nodes get other ids, in another
// relative order), every And and Or given its operands swapped (so each
// subterm's second operand is made first), and a Recycle to a Mark that
// holds other nodes, with more made and dropped after the Mark. A factory
// whose export followed its ids would store these nodes in other orders.
// Run under -race -count=10 by `make determinism`.
func TestExportIsCanonical(t *testing.T) {
	const nvars = 12
	histories := []struct {
		name  string
		swap  bool
		ready func(f *Factory, rng *rand.Rand)
	}{
		{"unrelated nodes first", false, func(f *Factory, rng *rand.Rand) {
			randomRoots(f, rng, 10, nvars)
		}},
		{"operands swapped", true, func(*Factory, *rand.Rand) {}},
		{"after a recycle to a Mark", false, func(f *Factory, rng *rand.Rand) {
			randomRoots(f, rng, 10, nvars)
			f.Mark()
			randomRoots(f, rng, 10, nvars)
			f.Recycle()
		}},
	}
	rng := rand.New(rand.NewSource(50))
	for i := range 100 {
		src := NewFactory()
		roots := randomRoots(src, rng, 1+rng.Intn(12), nvars)
		want := src.Export(roots...)
		for _, h := range histories {
			dst := NewFactory()
			h.ready(dst, rng)
			memo := map[F]F{}
			again := make([]F, len(roots))
			for j, r := range roots {
				again[j] = rebuild(src, dst, r, h.swap, memo)
			}
			got := dst.Export(again...)
			if !slices.Equal(got.nodes, want.nodes) || !slices.Equal(got.roots, want.roots) {
				t.Fatalf("roots %d, %s: the export differs from the first factory's (%d nodes, roots %v; want %d nodes, roots %v)",
					i, h.name, len(got.nodes), got.roots, len(want.nodes), want.roots)
			}
		}
	}
}
