package logic

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// buildDeep returns a formula with heavy internal sharing: a balanced
// conjunction of pairwise disjunctions over nv variables, negated in half
// of the branches so every node kind appears.
func buildDeep(f *Factory, nv int) F {
	var parts []F
	for i := 0; i < nv; i++ {
		a := f.Var(Var(i))
		b := f.Var(Var((i + 1) % nv))
		p := f.Or(a, f.Not(b))
		if i%2 == 1 {
			p = f.Not(p)
		}
		parts = append(parts, p)
	}
	return f.AndAll(parts...)
}

// assignments enumerates all 2^n assignments over vars 0..n-1.
func assignments(n int) []Assignment {
	var out []Assignment
	for bits := 0; bits < 1<<n; bits++ {
		asn := Assignment{}
		for v := 0; v < n; v++ {
			asn[Var(v)] = bits&(1<<v) != 0
		}
		out = append(out, asn)
	}
	return out
}

// TestPortableRoundTrip pins the contract core.Shared depends on: a
// formula exported from one factory and imported into a fresh one denotes
// the same boolean function (checked exhaustively and via BDD canonicity
// inside a common factory).
func TestPortableRoundTrip(t *testing.T) {
	src := NewFactory()
	x := buildDeep(src, 6)
	p := src.Export(x)
	if p.NumRoots() != 1 {
		t.Fatalf("NumRoots = %d, want 1", p.NumRoots())
	}

	dst := NewFactory()
	got := p.Import(dst)[0]
	for _, asn := range assignments(6) {
		if src.Eval(x, asn) != dst.Eval(got, asn) {
			t.Fatalf("round trip changed the function under %v", asn)
		}
	}

	// Importing back into the source factory must hit the hash-cons table
	// and be BDD-equivalent to the original.
	back := p.Import(src)[0]
	if !src.Equivalent(back, x) {
		t.Fatal("import into the exporting factory is not equivalent")
	}
	if back != x {
		t.Fatalf("import into the exporting factory missed hash-consing: %d vs %d", back, x)
	}
}

// TestPortableJSONBytes pins the hand-appended MarshalJSON and AppendJSON
// to the wire form they replace: byte for byte what encoding/json writes for a
// portableJSON, so stores written before and after read the same.
func TestPortableJSONBytes(t *testing.T) {
	f := NewFactory()
	x := buildDeep(f, 6)
	for name, p := range map[string]*Portable{
		"roots":     f.Export(x, f.Not(x), True, f.Var(9)),
		"no roots":  f.Export(),
		"nil roots": {nodes: make([]pnode, 2)},
	} {
		w := portableJSON{Nodes: [][4]int32{}, Roots: p.roots}
		for _, n := range p.nodes[2:] {
			w.Nodes = append(w.Nodes, [4]int32{int32(n.k), int32(n.v), n.a, n.b})
		}
		want, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: MarshalJSON wrote\n%s\nwant\n%s", name, got, want)
		}
		// AppendJSON's own bytes, which ResultStore.Save writes without
		// encoding/json's compaction pass, appended after what is there.
		if got := p.AppendJSON([]byte("[")); !bytes.Equal(got, append([]byte("["), want...)) {
			t.Errorf("%s: AppendJSON wrote\n%s\nwant\n[%s", name, got, want)
		}
	}
}

// TestPortableSharedSubDAG exports two roots that share a subterm and
// checks both the shared structure survives (node counts) and each root's
// function is preserved.
func TestPortableSharedSubDAG(t *testing.T) {
	src := NewFactory()
	shared := src.And(src.Var(0), src.Var(1))
	r1 := src.Or(shared, src.Var(2))
	r2 := src.And(shared, src.Not(src.Var(3)))
	p := src.Export(r1, r2)
	if p.NumRoots() != 2 {
		t.Fatalf("NumRoots = %d, want 2", p.NumRoots())
	}
	// 2 constants + v0,v1,v2,v3 + shared + !v3 + r1 + r2 = 10; a copy
	// per root would store the shared subterm twice.
	if p.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10 (shared subterm must be stored once)", p.NumNodes())
	}

	dst := NewFactory()
	out := p.Import(dst)
	if len(out) != 2 {
		t.Fatalf("Import returned %d roots, want 2", len(out))
	}
	for _, asn := range assignments(4) {
		if src.Eval(r1, asn) != dst.Eval(out[0], asn) {
			t.Fatalf("root 0 changed under %v", asn)
		}
		if src.Eval(r2, asn) != dst.Eval(out[1], asn) {
			t.Fatalf("root 1 changed under %v", asn)
		}
	}
	// The rebuilt roots must share their subterm in the new factory too:
	// the import makes the ten nodes the snapshot stores and no copy, and
	// hash-consing makes the subterm one node, an operand of both roots.
	if n := dst.NumNodes(); n != 10 {
		t.Fatalf("import made %d nodes, want 10 (shared subterm must be rebuilt once)", n)
	}
	sub := dst.And(dst.Var(0), dst.Var(1))
	for i, r := range out {
		if sh := dst.Shape(r); sh.A != sub && sh.B != sub {
			t.Fatalf("root %d does not hold the shared subterm %d as an operand: %+v", i, sub, sh)
		}
	}
}

// TestPortableLiteralsAndConstants covers the degenerate roots: bare
// constants, single literals, and negated literals.
func TestPortableLiteralsAndConstants(t *testing.T) {
	src := NewFactory()
	roots := []F{False, True, src.Var(7), src.NotVar(7)}
	p := src.Export(roots...)
	dst := NewFactory()
	out := p.Import(dst)
	if out[0] != False || out[1] != True {
		t.Fatalf("constants must map to the reserved ids, got %v", out[:2])
	}
	if out[2] != dst.Var(7) {
		t.Fatal("literal did not round-trip to the canonical var node")
	}
	if out[3] != dst.Not(dst.Var(7)) {
		t.Fatal("negated literal did not round-trip")
	}
	// Exhaustive: the four roots are False, True, v7, !v7.
	for _, asn := range []Assignment{{7: true}, {7: false}} {
		for i, r := range roots {
			if src.Eval(r, asn) != dst.Eval(out[i], asn) {
				t.Fatalf("root %d changed under %v", i, asn)
			}
		}
	}
}

// TestPortableImportIdempotent: importing the same snapshot twice into
// one factory yields identical (hash-consed) formulas.
func TestPortableImportIdempotent(t *testing.T) {
	src := NewFactory()
	x := buildDeep(src, 5)
	p := src.Export(x)
	dst := NewFactory()
	a := p.Import(dst)[0]
	b := p.Import(dst)[0]
	if a != b {
		t.Fatalf("second import produced a distinct node: %d vs %d", a, b)
	}
}

// TestPortableNodeShape pins the compiler-facing metadata: nodes come in
// dependency order, NodeShape's child references index the portable's own
// array, and re-evaluating the snapshot through NodeShape alone (no
// factory) reproduces the formula's function.
func TestPortableNodeShape(t *testing.T) {
	src := NewFactory()
	x := buildDeep(src, 6)
	p := src.Export(x)

	eval := func(asn Assignment) bool {
		vals := make([]bool, p.NumNodes())
		for i := 0; i < p.NumNodes(); i++ {
			s := p.NodeShape(i)
			switch s.Kind {
			case WalkConst:
				vals[i] = s.Value
			case WalkVar:
				v, ok := asn[s.Variable]
				vals[i] = v || !ok
			case WalkNot:
				if int(s.A) >= i {
					t.Fatalf("node %d references child %d at or after itself", i, s.A)
				}
				vals[i] = !vals[s.A]
			case WalkAnd:
				vals[i] = vals[s.A] && vals[s.B]
			case WalkOr:
				vals[i] = vals[s.A] || vals[s.B]
			}
		}
		return vals[p.Root(0)]
	}
	for _, asn := range assignments(6) {
		if got, want := eval(asn), src.Eval(x, asn); got != want {
			t.Fatalf("NodeShape evaluation = %v, factory Eval = %v under %v", got, want, asn)
		}
	}
}

// TestPortableRejectsNegativeVar: a decoded snapshot carrying a negative
// variable id must be refused — Factory.Var indexes its cache by the
// variable, so importing one would panic (found by extending the decode
// fuzzer's seed corpus).
func TestPortableRejectsNegativeVar(t *testing.T) {
	var p Portable
	err := p.UnmarshalJSON([]byte(`{"n":[[1,-1,0,0]],"r":[2]}`))
	if err == nil {
		t.Fatal("negative variable id accepted; Import would index out of bounds")
	}
}

// TestImportRootsMatchesImport pins the one import path: for every subset
// of a snapshot's roots, in a shuffled order and with a root named twice,
// ImportRoots returns exactly the formulas Import returns for those roots
// (the same ids in one factory), and it creates no node those roots do
// not reach — as many nodes as importing a snapshot of them alone.
// Import is the all-roots case. Run under -race -count=10 by `make
// determinism`.
func TestImportRootsMatchesImport(t *testing.T) {
	src := NewFactory()
	shared := buildDeep(src, 5)
	roots := []F{
		shared,
		src.Or(shared, src.Var(7)),
		src.And(src.Var(8), src.Not(src.Var(9))),
		buildDeep(src, 7),
		True,
		src.Var(3),
	}
	p := src.Export(roots...)
	rng := rand.New(rand.NewSource(1))
	for mask := 0; mask < 1<<len(roots); mask++ {
		var which []int
		for i := range roots {
			if mask&(1<<i) != 0 {
				which = append(which, i)
			}
		}
		rng.Shuffle(len(which), func(i, j int) { which[i], which[j] = which[j], which[i] })
		if len(which) > 0 {
			which = append(which, which[0])
		}
		f := NewFactory()
		got := p.ImportRoots(f, which)
		nodes := f.NumNodes()
		alone := NewFactory()
		sub := make([]F, len(which))
		for i, r := range which {
			sub[i] = roots[r]
		}
		src.Export(sub...).Import(alone)
		if nodes != alone.NumNodes() {
			t.Fatalf("roots %v: ImportRoots made %d nodes, a snapshot of those roots alone %d", which, nodes, alone.NumNodes())
		}
		all := p.Import(f)
		for i, r := range which {
			if got[i] != all[r] {
				t.Fatalf("roots %v: root %d imported as %d, Import gives %d", which, r, got[i], all[r])
			}
		}
	}
}
