package core

import (
	"fmt"
	"strings"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/logic"
)

// TestOrderShrinksSolver is the regression guard of the computed variable
// order (topo.VarOrder): at K=2 every class representative of gen.Small
// and gen.Medium is simulated under it and under the natural order — link
// ids, i.e. the order the generator happened to add links in, which is
// what the solver branched on before there was a rule. Verdicts and work
// counts must be equal; the BDD nodes made must not exceed 0.8× the
// natural order's (measured 0.51× and 0.48×). A count, so it repeats
// exactly where a timing could not. It lives here and not at the root
// because there is no knob to ask for another order: the natural-order
// run goes through reset's seam.
func TestOrderShrinksSolver(t *testing.T) {
	presets := []gen.Params{gen.Small()}
	if !testing.Short() && !raceEnabled {
		presets = append(presets, gen.Medium())
	}
	for _, p := range presets {
		m := modelFrom(t, p)
		opts := DefaultOptions()
		opts.K = 2
		// One IGP memo for both runs: its conditions are imported as
		// formulas, so the two differ in nothing but the order their BDDs
		// are built in.
		sh := NewShared(m, opts)
		run := func(factory func() *logic.Factory) (nodes int, work string) {
			sim := sh.NewSimulator()
			var b strings.Builder
			for _, cls := range m.Classes() {
				sim.reset(factory())
				res, err := sim.Run(cls.Rep)
				if err != nil {
					t.Fatal(err)
				}
				nodes += res.Stats.SolverNodes
				st := res.Stats
				fmt.Fprintf(&b, "%s steps %d branches %d dropped %d/%d/%d delivered %d\n", cls.Rep,
					st.Steps, st.Branches, st.DroppedPolicy, st.DroppedOverK, st.DroppedImpossible, st.Delivered)
				pat := AnyRouteTo(cls.Rep)
				for _, node := range m.Net.Nodes() {
					if m.Configs[node.ID].BGP != nil && res.Reachable(node.ID, pat) {
						min, _ := res.MinFailuresToLose(node.ID, pat)
						fmt.Fprintf(&b, " %s %d\n", node.Name, min)
					}
				}
			}
			return nodes, b.String()
		}
		natural, wantWork := run(logic.NewFactory)
		computed, work := run(func() *logic.Factory { return logic.NewFactoryOrdered(m.Net.VarOrder()) })
		if work != wantWork {
			t.Fatalf("%d routers: the variable order changed a verdict or a work count:\ncomputed order:\n%s\nnatural order:\n%s",
				m.Net.NumNodes(), work, wantWork)
		}
		t.Logf("%d routers: %d solver nodes under the computed order, %d under the natural one (%.2f×)",
			m.Net.NumNodes(), computed, natural, float64(computed)/float64(natural))
		if 10*computed > 8*natural {
			t.Fatalf("%d routers: the computed order made %d solver nodes, more than 0.8× the natural order's %d",
				m.Net.NumNodes(), computed, natural)
		}
	}
}
