package qc

import (
	"testing"

	"hoyan"
	"hoyan/internal/dist"
	"hoyan/internal/logic"
)

// buildCond returns a representative reachability-style condition over nv
// link variables: a disjunction of two-link paths with one negated spur,
// shaped like the path disjunctions simulation produces.
func buildCond(f *logic.Factory, nv int) logic.F {
	var paths []logic.F
	for i := 0; i+1 < nv; i += 2 {
		paths = append(paths, f.And(f.Var(logic.Var(i)), f.Var(logic.Var(i+1))))
	}
	backup := f.And(f.Var(0), f.Not(f.Var(logic.Var(nv-1))))
	return f.OrAll(append(paths, backup)...)
}

// failureSets enumerates every subset of vars 0..nv-1 as both a
// FailureSet and the equivalent logic.Assignment (failed ⇒ false; the
// factory treats absent as true, matching the bitset's "up unless
// failed").
func failureSets(nv int) []struct {
	fs  *FailureSet
	asn logic.Assignment
} {
	var out []struct {
		fs  *FailureSet
		asn logic.Assignment
	}
	for bits := 0; bits < 1<<nv; bits++ {
		fs := NewFailureSet(logic.Var(nv - 1))
		asn := logic.Assignment{}
		for v := 0; v < nv; v++ {
			if bits&(1<<v) != 0 {
				fs.Add(logic.Var(v))
				asn[logic.Var(v)] = false
			}
		}
		out = append(out, struct {
			fs  *FailureSet
			asn logic.Assignment
		}{fs, asn})
	}
	return out
}

// TestCompileRootMatchesFactoryEval is the compiler's core contract:
// the flat program and the factory agree on every assignment, for every
// root of a shared multi-root snapshot.
func TestCompileRootMatchesFactoryEval(t *testing.T) {
	const nv = 6
	f := logic.NewFactory()
	roots := []logic.F{
		buildCond(f, nv),
		f.Not(buildCond(f, nv)),
		logic.True,
		logic.False,
		f.Var(3),
	}
	p := f.Export(roots...)

	sc := &Scratch{}
	for ri, root := range roots {
		prog, err := CompileRoot(p, ri, logic.Var(nv-1))
		if err != nil {
			t.Fatalf("root %d: %v", ri, err)
		}
		for _, c := range failureSets(nv) {
			if got, want := prog.Eval(c.fs, sc), f.Eval(root, c.asn); got != want {
				t.Fatalf("root %d: compiled=%v factory=%v under %v", ri, got, want, c.asn)
			}
		}
	}
}

// TestCompileRootDense: compiling one root of a multi-root snapshot must
// emit only that root's reachable sub-DAG, not the whole node array.
func TestCompileRootDense(t *testing.T) {
	f := logic.NewFactory()
	big := buildCond(f, 12)
	tiny := f.Var(0)
	p := f.Export(big, tiny)
	prog, err := CompileRoot(p, 1, logic.Var(11))
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumInstrs() != 1 {
		t.Fatalf("single-literal root compiled to %d instructions, want 1", prog.NumInstrs())
	}
	if vs := prog.Vars(); len(vs) != 1 || vs[0] != 0 {
		t.Fatalf("Vars = %v, want [0]", vs)
	}
}

// TestCompileRootRejects pins the error paths: out-of-range roots and
// variables outside the link universe.
func TestCompileRootRejects(t *testing.T) {
	f := logic.NewFactory()
	p := f.Export(f.Var(9))
	if _, err := CompileRoot(p, 1, 20); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	if _, err := CompileRoot(p, -1, 20); err == nil {
		t.Fatal("negative root accepted")
	}
	if _, err := CompileRoot(p, 0, 5); err == nil {
		t.Fatal("variable 9 accepted under maxVar 5")
	}
	if _, err := CompileRoot(p, 0, -1); err != nil {
		t.Fatalf("maxVar<0 must disable the universe check: %v", err)
	}
}

// fabricateStore builds a two-class ResultStore by hand — four links in
// a square a-b-c-d, class 0 reachable over two paths, class 1 pinned to
// one fragile link — so snapshot-level indexes have known answers. The
// verdicts are what a K=2 sweep of those conditions would have stored.
func fabricateStore(t *testing.T) *hoyan.ResultStore {
	t.Helper()
	f := logic.NewFactory()
	// Links (vars): 0=a~b 1=b~c 2=a~d 3=c~d.
	twoPath := f.Or(
		f.And(f.Var(0), f.Var(1)),
		f.And(f.Var(2), f.Var(3)),
	)
	fragile := f.Var(1)
	return &hoyan.ResultStore{
		OptionsHash: "test",
		K:           2,
		Links: []hoyan.StoredLink{
			{A: "a", B: "b"}, {A: "b", B: "c"}, {A: "a", B: "d"}, {A: "c", B: "d"},
		},
		Classes: []hoyan.ClassRecord{
			{
				Members: []string{"10.0.0.0/24", "10.0.1.0/24"},
				Verdicts: []dist.RouterSummary{
					{Router: "r1", Reachable: true, MinFailures: 2},
					{Router: "r2", Reachable: true, MinFailures: -1},
				},
				Record: dist.Record{Conds: f.Export(twoPath, logic.True)},
			},
			{
				Members: []string{"10.0.2.0/24"},
				Verdicts: []dist.RouterSummary{
					{Router: "r1", Reachable: true, MinFailures: 1},
					{Router: "r2"},
				},
				Record: dist.Record{Conds: f.Export(fragile, logic.False)},
			},
		},
	}
}

func TestCompileStore(t *testing.T) {
	st := fabricateStore(t)
	snap, err := CompileStore(st)
	if err != nil {
		t.Fatal(err)
	}
	// The fixed answers are the record's verdicts, and the class aggregate
	// is the record's own report — the sweep's fold, not a second one.
	for ci, cls := range snap.Classes {
		rec := &st.Classes[ci]
		if sum, _ := rec.Report(rec.Members[0]); cls.ClassMinFail != sum.MinFailures {
			t.Fatalf("class %d: ClassMinFail %d, the record's report says %d", ci, cls.ClassMinFail, sum.MinFailures)
		}
		for ri, v := range rec.Verdicts {
			if cls.Routers[ri] != v.Router || cls.ReachUp[ri] != v.Reachable || cls.MinFail[ri] != v.MinFailures {
				t.Fatalf("class %d root %d: %s reach=%v minfail=%d, verdict %+v",
					ci, ri, cls.Routers[ri], cls.ReachUp[ri], cls.MinFail[ri], v)
			}
		}
	}
	if snap.K != 2 || snap.Stats.Classes != 2 || snap.Stats.Prefixes != 3 || snap.Stats.Programs != 4 {
		t.Fatalf("stats = %+v, K=%d", snap.Stats, snap.K)
	}

	c0, ok := snap.ClassOf("10.0.1.0/24")
	if !ok || c0 != snap.Classes[0] {
		t.Fatal("prefix→class index wrong for class 0")
	}
	if _, ok := snap.ClassOf("192.168.0.0/16"); ok {
		t.Fatal("unknown prefix resolved")
	}

	// Class 0 at r1: two disjoint 2-link paths ⇒ reachable up, min
	// failures 2. At r2 the condition is constant-true ⇒ survives the
	// budget.
	if i, ok := c0.Router("r1"); !ok || !c0.ReachUp[i] || c0.MinFail[i] != 2 {
		t.Fatalf("class 0 r1: ok=%v reach=%v minfail=%d", ok, c0.ReachUp[i], c0.MinFail[i])
	}
	if i, ok := c0.Router("r2"); !ok || c0.MinFail[i] != -1 {
		t.Fatalf("class 0 r2 must survive the budget, got %d", c0.MinFail[i])
	}
	if c0.ClassMinFail != 2 {
		t.Fatalf("class 0 ClassMinFail = %d, want 2", c0.ClassMinFail)
	}

	// Class 1 at r1 hangs off link b~c alone; at r2 it is constant-false
	// (unreachable even with all links up), which must not drag the class
	// aggregate to zero.
	c1 := snap.Classes[1]
	if i, _ := c1.Router("r1"); c1.MinFail[i] != 1 {
		t.Fatalf("class 1 r1 minfail = %d, want 1", c1.MinFail[i])
	}
	if i, _ := c1.Router("r2"); c1.ReachUp[i] {
		t.Fatal("constant-false condition reported reachable")
	}
	if c1.ClassMinFail != 1 {
		t.Fatalf("class 1 ClassMinFail = %d, want 1", c1.ClassMinFail)
	}

	// Link resolution accepts both endpoint orders; unknown names fail.
	for name, want := range map[string]logic.Var{"a~b": 0, "b~a": 0, "c~d": 3, "d~c": 3} {
		if v, ok := snap.ResolveLink(name); !ok || v != want {
			t.Fatalf("ResolveLink(%q) = %d,%v want %d", name, v, ok, want)
		}
	}
	if _, ok := snap.ResolveLink("a~z"); ok {
		t.Fatal("unknown link resolved")
	}
	if got := snap.LinkName(1); got != "b~c" {
		t.Fatalf("LinkName(1) = %q", got)
	}

	// Reverse index: b~c (var 1) feeds both classes; a~d (var 2) only the
	// two-path class; a condition-free variable impacts nothing... there
	// is none here, so check the counts.
	if imp := snap.Impacted(1); len(imp) != 2 {
		t.Fatalf("Impacted(b~c) = %d classes, want 2", len(imp))
	}
	if imp := snap.Impacted(2); len(imp) != 1 || imp[0] != snap.Classes[0] {
		t.Fatalf("Impacted(a~d) wrong: %d classes", len(imp))
	}
	if snap.Impacted(99) != nil {
		t.Fatal("out-of-universe link impacts something")
	}

	// Evaluation through the snapshot's own scratch: kill both east
	// links, class 0 must fall at r1.
	fs, sc := snap.NewFailureSet(), snap.NewScratch()
	fs.Add(1)
	fs.Add(3)
	i, _ := c0.Router("r1")
	if c0.Progs[i].Eval(fs, sc) {
		t.Fatal("class 0 survives losing both paths' east links")
	}
	fs.Reset()
	fs.Add(1)
	if !c0.Progs[i].Eval(fs, sc) {
		t.Fatal("class 0 lost reachability with the southern path intact")
	}
}

// TestCompileStoreRejectsMisaligned: a record without conditions, or
// whose verdicts and condition roots disagree, must refuse to compile
// rather than serve one router's answer under another's name.
func TestCompileStoreRejectsMisaligned(t *testing.T) {
	st := fabricateStore(t)
	st.Classes[1].Conds = nil
	if _, err := CompileStore(st); err == nil {
		t.Fatal("store without per-router conditions compiled")
	}

	st = fabricateStore(t)
	st.Classes[0].Verdicts = st.Classes[0].Verdicts[:1]
	if _, err := CompileStore(st); err == nil {
		t.Fatal("root/verdict count mismatch compiled")
	}

	st = fabricateStore(t)
	st.Classes[1].Members = []string{"10.0.0.0/24"} // collides with class 0
	if _, err := CompileStore(st); err == nil {
		t.Fatal("duplicate prefix membership compiled")
	}
}

// TestHotPathAllocBudget extends the logic-package budget to the query
// plane: once a Scratch is warm, Program.Eval and FailureSet.Has must
// not allocate at all — the //hoyan:hotpath annotation measured
// dynamically, per query, not just checked syntactically.
func TestHotPathAllocBudget(t *testing.T) {
	f := logic.NewFactory()
	cond := buildCond(f, 40)
	p := f.Export(cond)
	prog, err := CompileRoot(p, 0, 39)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFailureSet(39)
	fs.Add(7)
	sc := &Scratch{}
	prog.Eval(fs, sc) // warm the scratch

	allocs := testing.AllocsPerRun(1000, func() {
		fs.Reset()
		fs.Add(7)
		fs.Add(21)
		if prog.Eval(fs, sc) == prog.Eval(&FailureSet{}, sc) && false {
			t.Error("unreachable")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm compiled eval allocates %v times per run, want 0", allocs)
	}

}

// BenchmarkCompiledEval measures the single-condition evaluation the
// query plane performs per (router, prefix, failure-set) triple.
func BenchmarkCompiledEval(b *testing.B) {
	f := logic.NewFactory()
	cond := buildCond(f, 64)
	p := f.Export(cond)
	prog, err := CompileRoot(p, 0, 63)
	if err != nil {
		b.Fatal(err)
	}
	fs := NewFailureSet(63)
	fs.Add(3)
	fs.Add(17)
	sc := &Scratch{}
	prog.Eval(fs, sc)
	b.ReportAllocs()
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		sink = prog.Eval(fs, sc)
	}
	_ = sink
}
