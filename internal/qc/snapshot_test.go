package qc

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hoyan"
	"hoyan/internal/gen"
	"hoyan/internal/logic"
)

// sameSnapshot fails unless got serves exactly what want serves, class
// by class: every program instruction for instruction, the routers,
// verdicts and indexes, and the stats apart from Reused and CompileTime.
func sameSnapshot(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	if got.K != want.K || got.OptionsHash != want.OptionsHash || got.maxInstrs != want.maxInstrs {
		t.Fatalf("%s: K %d/%d, options %q/%q, max instrs %d/%d", label,
			got.K, want.K, got.OptionsHash, want.OptionsHash, got.maxInstrs, want.maxInstrs)
	}
	gs, ws := got.Stats, want.Stats
	gs.Reused, gs.CompileTime, ws.Reused, ws.CompileTime = 0, 0, 0, 0
	if gs != ws {
		t.Fatalf("%s: stats %+v, cold %+v", label, gs, ws)
	}
	if !maps.Equal(got.prefixClass, want.prefixClass) || !maps.Equal(got.linkVar, want.linkVar) ||
		!slices.Equal(got.linkNames, want.linkNames) || !slices.EqualFunc(got.impact, want.impact, slices.Equal[[]int]) {
		t.Fatalf("%s: prefix, link or impact index differs from the cold compile", label)
	}
	if len(got.Classes) != len(want.Classes) {
		t.Fatalf("%s: %d classes, cold %d", label, len(got.Classes), len(want.Classes))
	}
	for ci, g := range got.Classes {
		w := want.Classes[ci]
		if !slices.Equal(g.Members, w.Members) || !slices.Equal(g.Routers, w.Routers) ||
			!slices.Equal(g.MinFail, w.MinFail) || !slices.Equal(g.ReachUp, w.ReachUp) ||
			g.ClassMinFail != w.ClassMinFail || !maps.Equal(g.routerIdx, w.routerIdx) || g.conds != w.conds {
			t.Fatalf("%s: class %d (%v) answers differ from the cold compile", label, ci, g.Members)
		}
		if len(g.Progs) != len(w.Progs) {
			t.Fatalf("%s: class %d has %d programs, cold %d", label, ci, len(g.Progs), len(w.Progs))
		}
		for ri, p := range g.Progs {
			if !slices.Equal(p.ins, w.Progs[ri].ins) || !slices.Equal(p.vars, w.Progs[ri].vars) {
				t.Fatalf("%s: class %d router %s: program differs from the cold compile", label, ci, g.Routers[ri])
			}
		}
	}
}

// heldPrograms counts the programs of st's records whose condition set
// is one prev holds — what CompileStoreFrom(prev, st) may reuse when the
// link universe is unchanged.
func heldPrograms(prev *Snapshot, st *hoyan.ResultStore) int {
	held := map[*logic.Portable]bool{}
	for _, c := range prev.Classes {
		held[c.conds] = true
	}
	n := 0
	for i := range st.Classes {
		if held[st.Classes[i].Conds] {
			n += st.Classes[i].Conds.NumRoots()
		}
	}
	return n
}

func mustCompile(t *testing.T, prev *Snapshot, st *hoyan.ResultStore) *Snapshot {
	t.Helper()
	snap, err := CompileStoreFrom(prev, st)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestCompileFromMatchesCold pins the incremental publish to the cold
// one: across a gen.Perturb series of incremental resweeps, compiling
// each store from the previous snapshot gives the snapshot a cold
// compile gives, and reuses exactly the programs of the records the
// resweep replayed. A changed link list, a cold resweep's fresh
// condition sets and a root count the previous snapshot did not compile
// each reuse nothing of what they touch.
func TestCompileFromMatchesCold(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params gen.Params
	}{{"small", gen.Small()}, {"medium", gen.Medium()}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "medium" && testing.Short() {
				t.Skip("gen.Medium sweeps are skipped in -short")
			}
			w, err := gen.Generate(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			n := hoyan.NetworkFrom(w.Net, w.Snap)
			const k = 2
			_, st, err := n.SweepBaseline(hoyan.Options{K: k}, 2)
			if err != nil {
				t.Fatal(err)
			}
			prev := mustCompile(t, nil, st)
			if prev.Stats.Reused != 0 {
				t.Fatalf("cold compile reused %d programs", prev.Stats.Reused)
			}
			if again := mustCompile(t, prev, st); again.Stats.Reused != prev.Stats.Programs {
				t.Fatalf("recompiling the same store reused %d of %d programs", again.Stats.Reused, prev.Stats.Programs)
			}

			reusedAny := false
			for _, p := range gen.Perturb(w, 11, 5) {
				switch p.Kind {
				case "link":
					n.AddLink(p.Link.A, p.Link.B, p.Link.Weight)
				default:
					if err := n.ApplyUpdate(p.Device, p.Lines...); err != nil {
						t.Fatalf("%s: %v", p.Description, err)
					}
				}
				rep, next, err := n.SweepBaseline(hoyan.Options{K: k, Baseline: st}, 2)
				if err != nil {
					t.Fatalf("%s: %v", p.Description, err)
				}
				snap := mustCompile(t, prev, next)
				sameSnapshot(t, p.Description, snap, mustCompile(t, nil, next))
				want := heldPrograms(prev, next)
				if p.Kind == "link" {
					want = 0 // the link list changed
				}
				if snap.Stats.Reused != want {
					t.Fatalf("%s: reused %d programs, want %d", p.Description, snap.Stats.Reused, want)
				}
				if roots := len(next.Classes[0].Verdicts); p.Kind != "link" && want != rep.Replayed*roots {
					t.Fatalf("%s: %d programs held for %d replayed classes of %d roots", p.Description, want, rep.Replayed, roots)
				}
				reusedAny = reusedAny || want > 0
				st, prev = next, snap
			}
			if !reusedAny {
				t.Fatal("no step of the series replayed a class: reuse was never exercised")
			}

			// A link list in another order renames the variables: nothing is
			// reused, though every condition set is held.
			relinked := *st
			relinked.Links = slices.Clone(st.Links)
			relinked.Links[0], relinked.Links[1] = relinked.Links[1], relinked.Links[0]
			snap := mustCompile(t, prev, &relinked)
			if snap.Stats.Reused != 0 {
				t.Fatalf("a reordered link list reused %d programs", snap.Stats.Reused)
			}
			sameSnapshot(t, "reordered links", snap, mustCompile(t, nil, &relinked))

			// A cold resweep exports fresh condition sets.
			_, cold, err := n.SweepBaseline(hoyan.Options{K: k}, 2)
			if err != nil {
				t.Fatal(err)
			}
			snap = mustCompile(t, prev, cold)
			if snap.Stats.Reused != 0 {
				t.Fatalf("a cold resweep's store reused %d programs", snap.Stats.Reused)
			}
			sameSnapshot(t, "cold resweep", snap, mustCompile(t, nil, cold))

			// A held condition set whose root count prev did not compile is
			// compiled, not taken.
			bent := *prev
			bent.Classes = slices.Clone(prev.Classes)
			short := *prev.Classes[0]
			short.Progs = short.Progs[:len(short.Progs)-1]
			bent.Classes[0] = &short
			snap = mustCompile(t, &bent, st)
			if want := prev.Stats.Programs - len(prev.Classes[0].Progs); snap.Stats.Reused != want {
				t.Fatalf("a class with a new root count: reused %d programs, want %d", snap.Stats.Reused, want)
			}
			sameSnapshot(t, "new root count", snap, mustCompile(t, nil, st))
		})
	}
}

// TestCompileFromReadsNewVerdicts pins the other half of a held class's
// key: a record whose condition set prev holds but whose verdict slice
// is another one takes prev's programs and nothing of prev's routers or
// verdicts, and serves what a cold compile serves.
func TestCompileFromReadsNewVerdicts(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := hoyan.NetworkFrom(w.Net, w.Snap).SweepBaseline(hoyan.Options{K: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	prev := mustCompile(t, nil, st)
	next := *st
	next.Classes = slices.Clone(st.Classes)
	rec := &next.Classes[0]
	rec.Verdicts = slices.Clone(rec.Verdicts)
	for i := range rec.Verdicts {
		v := &rec.Verdicts[i]
		v.Reachable, v.MinFailures = !v.Reachable, (v.MinFailures+2)%(st.K+2)-1
	}
	snap := mustCompile(t, prev, &next)
	if snap.Stats.Reused != prev.Stats.Programs {
		t.Fatalf("reused %d of %d programs", snap.Stats.Reused, prev.Stats.Programs)
	}
	sameSnapshot(t, "new verdicts", snap, mustCompile(t, nil, &next))
	if slices.Equal(snap.Classes[0].ReachUp, prev.Classes[0].ReachUp) {
		t.Fatal("the edited verdicts were not served")
	}
}

// compileAt runs CompileStoreFrom at the given GOMAXPROCS.
func compileAt(t *testing.T, procs int, prev *Snapshot, st *hoyan.ResultStore) (*Snapshot, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return CompileStoreFrom(prev, st)
}

// TestCompileStripedMatchesSerial pins the striped lowering to the
// serial one: at GOMAXPROCS 4 a compile serves what it serves at 1, cold
// and from a previous snapshot holding every other class's programs, and
// a store with two bad classes fails with the lower class's error at
// every GOMAXPROCS, whichever check each fails.
func TestCompileStripedMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params gen.Params
	}{{"small", gen.Small()}, {"medium", gen.Medium()}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "medium" && testing.Short() {
				t.Skip("gen.Medium sweeps are skipped in -short")
			}
			w, err := gen.Generate(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := hoyan.NetworkFrom(w.Net, w.Snap).SweepBaseline(hoyan.Options{K: 2}, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Classes) < 4 {
				t.Fatalf("%d classes: too few to stripe", len(st.Classes))
			}
			serial, err := compileAt(t, 1, nil, st)
			if err != nil {
				t.Fatal(err)
			}
			half := *serial
			half.Classes = nil
			for ci, c := range serial.Classes {
				if ci%2 == 0 {
					half.Classes = append(half.Classes, c)
				}
			}
			for _, procs := range []int{1, 4} {
				snap, err := compileAt(t, procs, nil, st)
				if err != nil {
					t.Fatal(err)
				}
				sameSnapshot(t, fmt.Sprintf("cold at GOMAXPROCS %d", procs), snap, serial)
				snap, err = compileAt(t, procs, &half, st)
				if err != nil {
					t.Fatal(err)
				}
				if want := heldPrograms(&half, st); snap.Stats.Reused != want || want == 0 {
					t.Fatalf("GOMAXPROCS %d: reused %d programs of half the classes, want %d", procs, snap.Stats.Reused, want)
				}
				sameSnapshot(t, fmt.Sprintf("half held at GOMAXPROCS %d", procs), snap, serial)
			}

			// Class 1 and the last class are bad, each one way and then
			// the other: the error is class 1's, with the serial text.
			last := len(st.Classes) - 1
			misalign := func(rec *hoyan.ClassRecord) { rec.Verdicts = rec.Verdicts[1:] }
			outside := func(rec *hoyan.ClassRecord) {
				f := logic.NewFactory()
				roots := make([]logic.F, len(rec.Verdicts))
				for i := range roots {
					roots[i] = f.Var(logic.Var(len(st.Links)))
				}
				rec.Conds = f.Export(roots...)
			}
			for _, order := range [][2]func(*hoyan.ClassRecord){{misalign, outside}, {outside, misalign}} {
				bad := *st
				bad.Classes = slices.Clone(st.Classes)
				order[0](&bad.Classes[1])
				order[1](&bad.Classes[last])
				var want string
				for _, procs := range []int{1, 2, 4} {
					_, err := compileAt(t, procs, nil, &bad)
					if err == nil {
						t.Fatalf("GOMAXPROCS %d: a store with two bad classes compiled", procs)
					}
					if want == "" {
						want = err.Error()
						if !strings.Contains(want, "class 1 ") {
							t.Fatalf("serial error %q does not name class 1", want)
						}
					}
					if err.Error() != want {
						t.Fatalf("GOMAXPROCS %d: error %q, serial %q", procs, err, want)
					}
				}
			}
		})
	}
}

// BenchmarkCompileFromOneDirtyClass is the publish of a resweep that
// re-simulated one class: a store of the benchmark's classes-k2 shape (64
// prefixes each a class of its own on 30 routers, K=2) with one record
// replaced by a new condition set and verdict slice, compiled from the
// previous snapshot, which holds every other record.
func BenchmarkCompileFromOneDirtyClass(b *testing.B) {
	w, err := gen.Generate(gen.Params{Seed: 1, Regions: 2, CoresPerRegion: 2, PEsPerRegion: 4,
		MANsPerRegion: 1, PeersPerRegion: 8, PrefixesPerPeer: 4, ExtraCoreLinks: 1, WANAS: 64500, PolicyDiversity: 4})
	if err != nil {
		b.Fatal(err)
	}
	_, st, err := hoyan.NetworkFrom(w.Net, w.Snap).SweepBaseline(hoyan.Options{K: 2}, 2)
	if err != nil {
		b.Fatal(err)
	}
	prev, err := CompileStore(st)
	if err != nil {
		b.Fatal(err)
	}
	next := *st
	next.Classes = slices.Clone(st.Classes)
	dirty := &next.Classes[len(next.Classes)/2]
	wire, err := dirty.Conds.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	dirty.Conds = new(logic.Portable)
	if err := dirty.Conds.UnmarshalJSON(wire); err != nil {
		b.Fatal(err)
	}
	dirty.Verdicts = slices.Clone(dirty.Verdicts)
	b.ReportAllocs()
	for b.Loop() {
		snap, err := CompileStoreFrom(prev, &next)
		if err != nil {
			b.Fatal(err)
		}
		if want := prev.Stats.Programs - len(dirty.Verdicts); snap.Stats.Reused != want {
			b.Fatalf("reused %d programs, want %d", snap.Stats.Reused, want)
		}
	}
}
