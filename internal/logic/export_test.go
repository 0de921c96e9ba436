package logic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceExport is Export as a fresh map per call: the depth-first walk
// from the roots, children first, each node stored where the walk first
// reaches it. The dense export table must write exactly these bytes.
func referenceExport(f *Factory, roots ...F) *Portable {
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
			nd = pnode{k: n.k, a: rec(n.a), b: rec(n.b)}
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
// reference above: on random formula DAGs, on several exports in a row
// from one factory (each reading the table the one before stamped), after
// a Recycle and after a recycle back to a Mark (which hand the same ids
// out again for other nodes), and across a forced wrap of the export
// generation, whose stale stamps would otherwise read as live. Run under
// -race -count=10 by `make determinism`.
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
