package core

import (
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/topo"
)

// TestTaintCoversRIBHolders is the engine-level soundness check for
// invalidation: every router that ends a class-representative simulation
// holding a family route must be in the recorded taint set, both ends of
// every session that carried family updates (read from the converged wire
// view, Result.SessionUpdates, not from the taint marks) must be tainted
// too, and the recorded universe must contain the simulated prefix. A
// device outside the taint set then provably contributed nothing the
// report could depend on.
func TestTaintCoversRIBHolders(t *testing.T) {
	params := gen.Small()
	if !testing.Short() {
		params = gen.Medium()
	}
	m := modelFrom(t, params)
	sim := NewSimulator(m, DefaultOptions())
	sessions, err := sim.SessionList()
	if err != nil {
		t.Fatal(err)
	}
	classes := m.Classes()
	stride := 1
	if len(classes) > 12 { // cap runtime; coverage stays class-shape-diverse
		stride = len(classes)/12 + 1
	}
	for i := 0; i < len(classes); i += stride {
		cls := classes[i]
		res, err := sim.Run(cls.Rep)
		if err != nil {
			t.Fatal(err)
		}
		taint := res.Taint()
		tainted := map[topo.NodeID]bool{}
		for _, id := range taint.Nodes {
			tainted[id] = true
		}
		for _, node := range m.Net.Nodes() {
			if len(res.RIB(node.ID)) > 0 && !tainted[node.ID] {
				t.Fatalf("class %s: %s holds %d family routes but is not tainted",
					cls.Rep, node.Name, len(res.RIB(node.ID)))
			}
		}
		carried := 0
		for _, s := range sessions {
			if ups, _ := res.SessionUpdates(s.From, s.To); len(ups) == 0 {
				continue
			}
			carried++
			if !tainted[s.From] || !tainted[s.To] {
				t.Fatalf("class %s: session %s->%s carried family updates but endpoints not both tainted",
					cls.Rep, m.Net.Node(s.From).Name, m.Net.Node(s.To).Name)
			}
		}
		inUniverse := false
		for _, p := range taint.Universe {
			if p == cls.Rep {
				inUniverse = true
			}
		}
		if !inUniverse {
			t.Fatalf("class %s: simulated prefix missing from recorded universe %v", cls.Rep, taint.Universe)
		}
		if len(taint.Nodes) == 0 || carried == 0 {
			t.Fatalf("class %s: empty taint (nodes=%d, sessions carrying updates=%d) on a flooded WAN",
				cls.Rep, len(taint.Nodes), carried)
		}
		sim.Reset()
	}
}
