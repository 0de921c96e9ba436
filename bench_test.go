// Benchmarks regenerating each table and figure of the paper's evaluation
// (see EXPERIMENTS.md for the mapping and the expected shapes). Each
// benchmark times one end-to-end regeneration of the experiment at a size
// that keeps `go test -bench=.` tractable; cmd/hoyanbench runs the
// full-size versions and prints the rows.
package hoyan_test

import (
	"testing"

	"hoyan/internal/baseline/batfish"
	"hoyan/internal/baseline/minesweeper"
	"hoyan/internal/baseline/plankton"
	"hoyan/internal/behavior"
	"hoyan/internal/bench"
	"hoyan/internal/core"
	"hoyan/internal/dataplane"
	"hoyan/internal/gen"
	"hoyan/internal/racing"
)

func mustWAN(b *testing.B, p gen.Params) *gen.WAN {
	b.Helper()
	w, err := gen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func mustModel(b *testing.B, w *gen.WAN) *core.Model {
	b.Helper()
	m, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkTable2VSBDetection: the tuner discovers and patches the VSBs of
// a multi-vendor WAN (Table 2).
func BenchmarkTable2VSBDetection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2VSBs(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3FullWANRouteReach: per-prefix simulation + reachability
// queries over the full WAN preset at k=3 (Table 3, route rows).
func BenchmarkTable3FullWANRouteReach(b *testing.B) {
	w := mustWAN(b, gen.Full())
	m := mustModel(b, w)
	prefixes := w.Prefixes()[:8]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := core.NewSimulator(m, core.DefaultOptions())
		for _, p := range prefixes {
			res, err := sim.Run(p)
			if err != nil {
				b.Fatal(err)
			}
			for _, node := range m.Net.Nodes() {
				res.MinFailuresToLose(node.ID, core.AnyRouteTo(p))
			}
		}
	}
}

// BenchmarkTable3FullWANPacketReach: FIB build + symbolic packet
// reachability on the full WAN (Table 3, packet rows).
func BenchmarkTable3FullWANPacketReach(b *testing.B) {
	w := mustWAN(b, gen.Full())
	m := mustModel(b, w)
	sim := core.NewSimulator(m, core.DefaultOptions())
	p := w.Prefixes()[0]
	res, err := sim.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	gw, _ := m.Resolve(w.PrefixOwners[p])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fib := dataplane.Build(res)
		for _, node := range m.Net.Nodes() {
			if node.ID != gw {
				fib.MinFailuresToLose(node.ID, 0, p.Addr+1, gw)
			}
		}
	}
}

// BenchmarkTable3RoleEquivalence: all-group equivalence on the full WAN
// (Table 3, role equivalence row — the paper's 13s entry).
func BenchmarkTable3RoleEquivalence(b *testing.B) {
	w := mustWAN(b, gen.Full())
	m := mustModel(b, w)
	sim := core.NewSimulator(m, core.DefaultOptions())
	p := w.Prefixes()[0]
	res, err := sim.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	groups := w.Net.NodeGroups()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, members := range groups {
			for j := 1; j < len(members); j++ {
				res.EquivalentRoles(members[0], members[j])
			}
		}
	}
}

// BenchmarkTable3Racing: racing detection on a full-WAN prefix (Table 3,
// racing row).
func BenchmarkTable3Racing(b *testing.B) {
	w := mustWAN(b, gen.Full())
	m := mustModel(b, w)
	sim := core.NewSimulator(m, core.DefaultOptions())
	p := w.Prefixes()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := racing.Detect(sim, p, racing.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 4/5 cells: Hoyan vs the three baselines on the small subnet at
// k=1 (the crossover row of Table 4).
func BenchmarkTable4HoyanSmallK1(b *testing.B) {
	w := mustWAN(b, gen.Small())
	m := mustModel(b, w)
	p := w.Prefixes()[0]
	tgt := w.Cores[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions()
		opts.K = 1
		sim := core.NewSimulator(m, opts)
		res, err := sim.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		id, _ := m.Resolve(tgt)
		res.KTolerant(id, core.AnyRouteTo(p), 1)
	}
}

func BenchmarkTable4BatfishSmallK1(b *testing.B) {
	w := mustWAN(b, gen.Small())
	p := w.Prefixes()[0]
	tgt := w.Cores[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf := batfish.New(w.Net, w.Snap, behavior.TrueProfiles())
		if _, err := bf.CheckRouteReach(p, tgt, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4MinesweeperSmallK1(b *testing.B) {
	w := mustWAN(b, gen.Small())
	p := w.Prefixes()[0]
	tgt := w.Cores[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := minesweeper.New(w.Net, w.Snap, behavior.TrueProfiles())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ms.CheckRouteReach(p, tgt, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4PlanktonSmallK1(b *testing.B) {
	w := mustWAN(b, gen.Small())
	p := w.Prefixes()[0]
	tgt := w.Cores[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk := plankton.New(w.Net, w.Snap, behavior.TrueProfiles())
		if _, err := pk.CheckRouteReach(p, tgt, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7CampaignMonth: verify one month of the audit campaign
// (Figure 7's per-month work).
func BenchmarkFig7CampaignMonth(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig7Campaign(gen.Small(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8SimulatePrefix: one per-prefix simulation on the full WAN
// at k=3 (Figure 8's sample).
func BenchmarkFig8SimulatePrefix(b *testing.B) {
	w := mustWAN(b, gen.Full())
	m := mustModel(b, w)
	sim := core.NewSimulator(m, core.DefaultOptions())
	p := w.Prefixes()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9VerifyPrefix: the solver-side query of Figure 9 (reuse a
// converged simulation, solve reachability at every node).
func BenchmarkFig9VerifyPrefix(b *testing.B) {
	w := mustWAN(b, gen.Full())
	m := mustModel(b, w)
	sim := core.NewSimulator(m, core.DefaultOptions())
	p := w.Prefixes()[0]
	res, err := sim.Run(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, node := range m.Net.Nodes() {
			res.MinFailuresToLose(node.ID, core.AnyRouteTo(p))
		}
	}
}

// BenchmarkFig14AccuracyTuning: the full pre→post tuning accuracy sweep
// (Figure 14).
func BenchmarkFig14AccuracyTuning(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig14Accuracy(gen.Small()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15ExtRIBLoadAndFig16Localize: tuner data-collection figures.
func BenchmarkFig15ExtRIBLoadAndFig16Localize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig15and16Tuner(gen.Small()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendixFFormulaSizes: Hoyan vs Minesweeper formula sizes.
func BenchmarkAppendixFFormulaSizes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AppendixFFormulas(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches (DESIGN.md's called-out design choices).
func BenchmarkAblationPruningOn(b *testing.B) {
	benchAblation(b, func(o *core.Options) {})
}

func BenchmarkAblationPruningOff(b *testing.B) {
	benchAblation(b, func(o *core.Options) {
		o.PruneOverK = false
		o.PruneImpossible = false
	})
}

func BenchmarkAblationSimplifyOff(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.Simplify = false })
}

func benchAblation(b *testing.B, mod func(*core.Options)) {
	b.Helper()
	w := mustWAN(b, gen.Medium())
	m := mustModel(b, w)
	p := w.Prefixes()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions()
		mod(&opts)
		sim := core.NewSimulator(m, opts)
		if _, err := sim.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12PruningStats exercises the stats pipeline at a steady
// size, keeping the pruning-percentage computation honest over time.
func BenchmarkFig12PruningStats(b *testing.B) {
	w := mustWAN(b, gen.Medium())
	m := mustModel(b, w)
	p := w.Prefixes()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := core.NewSimulator(m, core.DefaultOptions())
		res, err := sim.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		st := res.Stats
		if st.Branches != st.Delivered+st.DroppedImpossible+st.DroppedOverK+st.DroppedPolicy {
			b.Fatal("stats accounting broken")
		}
	}
}

// BenchmarkIGPMemoBuild times the cold IGP memo of gen.Medium — the
// IS-IS fixpoints behind every iBGP session condition, what NewShared
// pays before the first class runs. Meant for -cpu 1,2: the build fans
// out over GOMAXPROCS goroutines, which must help at 2 and cost nothing
// at 1.
func BenchmarkIGPMemoBuild(b *testing.B) {
	w := mustWAN(b, gen.Medium())
	m := mustModel(b, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sh := core.NewShared(m, core.DefaultOptions()); sh.IGPMemo().NumDestinations() == 0 {
			b.Fatal("empty memo")
		}
	}
}
