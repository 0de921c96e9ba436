package logic

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzPortableDecode hardens the persistence boundary: a Portable decoded
// from arbitrary bytes must either be rejected by UnmarshalJSON or be a
// fully valid snapshot — Import into a fresh factory never panics, and
// the marshal → unmarshal → Import round-trip reproduces the same
// formulas: Export's bytes are a function of the formulas alone, not of
// the factory that holds them, so the two imports must re-export to
// identical bytes. A
// corrupted result store may lose data, but it must never crash a worker
// or smuggle in a different formula. ImportRoots of a subset of the roots
// picked by the input's bytes must return the formulas Import returns
// for them and build no node Import would not.
func FuzzPortableDecode(f *testing.F) {
	fac := NewFactory()
	x := fac.And(fac.Var(1), fac.Or(fac.Var(2), fac.Not(fac.Var(3))))
	seed, err := json.Marshal(fac.Export(x))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"n":[],"r":[]}`))
	f.Add([]byte(`{"n":[[1,7,0,0],[2,0,2,0]],"r":[3]}`))
	f.Add([]byte(`{"n":[[0,0,0,0]],"r":[5]}`))
	f.Add([]byte(`{"n":[[3,0,9,9]],"r":[2]}`))
	f.Add([]byte(`{"n":[[1,-1,0,0]],"r":[2]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Portable
		if err := json.Unmarshal(data, &p); err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		f1 := NewFactory()
		roots := p.Import(f1)

		out, err := json.Marshal(&p)
		if err != nil {
			t.Fatalf("re-marshal of accepted snapshot failed: %v", err)
		}
		var p2 Portable
		if err := json.Unmarshal(out, &p2); err != nil {
			t.Fatalf("round-trip decode rejected own output %q: %v", out, err)
		}
		f2 := NewFactory()
		roots2 := p2.Import(f2)
		if len(roots) != len(roots2) {
			t.Fatalf("root count changed across round-trip: %d != %d", len(roots), len(roots2))
		}
		b1, err1 := json.Marshal(f1.Export(roots...))
		b2, err2 := json.Marshal(f2.Export(roots2...))
		if err1 != nil || err2 != nil {
			t.Fatalf("re-export failed: %v, %v", err1, err2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("formulas changed across round-trip:\n%s\n%s", b1, b2)
		}

		var which []int
		for i := range roots {
			if data[i%len(data)]>>(i%8)&1 == 1 {
				which = append(which, i)
			}
		}
		f3 := NewFactory()
		some := p.ImportRoots(f3, which)
		if f3.NumNodes() > f1.NumNodes() {
			t.Fatalf("ImportRoots of roots %v built %d nodes, Import of all %d", which, f3.NumNodes(), f1.NumNodes())
		}
		all := p.Import(f3)
		for i, r := range which {
			if some[i] != all[r] {
				t.Fatalf("root %d: ImportRoots gives %d, Import %d", r, some[i], all[r])
			}
		}
	})
}
