package qc

import (
	"encoding/json"
	"testing"

	"hoyan/internal/logic"
)

// FuzzCompiledEval differentially tests the query compiler against the
// factory: for any Portable that decodes, every root must either refuse
// to compile or produce a program that agrees with Factory.Eval on the
// imported formula under arbitrary failure sets. The compiled path is
// what the query plane serves from, so a disagreement here is a wrong
// answer to a user — the strongest property we can check without a
// second implementation.
func FuzzCompiledEval(f *testing.F) {
	fac := logic.NewFactory()
	x := buildCond(fac, 8)
	y := fac.Not(fac.And(x, fac.Var(5)))
	seed, err := json.Marshal(fac.Export(x, y))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, uint64(0))
	f.Add(seed, uint64(0xdeadbeef))
	f.Add([]byte(`{"n":[],"r":[0,1]}`), uint64(3))
	f.Add([]byte(`{"n":[[1,7,0,0],[2,0,2,0]],"r":[3]}`), uint64(7))
	f.Add([]byte(`not json`), uint64(1))

	f.Fuzz(func(t *testing.T, data []byte, bits uint64) {
		var p logic.Portable
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		fac := logic.NewFactory()
		roots := p.Import(fac)
		for ri, root := range roots {
			prog, err := CompileRoot(&p, ri, -1)
			if err != nil {
				t.Fatalf("decoded snapshot root %d refused to compile: %v", ri, err)
			}
			// Drive both evaluators from the same 64 fuzz bits: variable v
			// fails iff bit v%64 is set. Absent map entries default to true
			// in the factory, matching FailureSet's "up unless failed".
			fs := NewFailureSet(logic.Var(63))
			asn := logic.Assignment{}
			for _, v := range prog.Vars() {
				if bits>>(uint(v)&63)&1 == 1 {
					fs.Add(v)
					asn[v] = false
				}
			}
			sc := &Scratch{}
			if got, want := prog.Eval(fs, sc), fac.Eval(root, asn); got != want {
				t.Fatalf("root %d: compiled eval %v, factory eval %v (bits %#x)", ri, got, want, bits)
			}
		}
	})
}
