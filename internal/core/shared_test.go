package core

import (
	"fmt"
	"strings"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/igp"
	"hoyan/internal/topo"
)

// verdictsOn runs every class representative on a simulator of sh and
// renders what a sweep reports of each: reachability and the minimal
// failure count at every BGP speaker.
func verdictsOn(t *testing.T, sh *Shared) string {
	t.Helper()
	var b strings.Builder
	sim := sh.NewSimulator()
	for ci, cls := range sh.M.Classes() {
		if ci > 0 {
			sim.Reset()
		}
		res, err := sim.Run(cls.Rep)
		if err != nil {
			t.Fatal(err)
		}
		pat := AnyRouteTo(cls.Rep)
		for _, node := range sh.M.Net.Nodes() {
			if sh.M.Configs[node.ID].BGP == nil {
				continue
			}
			min := -1
			reach := res.Reachable(node.ID, pat)
			if reach {
				min, _ = res.MinFailuresToLose(node.ID, pat)
			}
			fmt.Fprintf(&b, "%s %s %v %d\n", cls.Rep, node.Name, reach, min)
		}
	}
	return b.String()
}

// TestMemoBuildDeterministic pins the verdict half of the memo build's
// determinism (igp's test of the same name pins the bytes): whatever the
// parallelism of the build, every class simulates to the same verdicts.
// Run under -race -count=10 by `make chaos`, on gen.Small there.
func TestMemoBuildDeterministic(t *testing.T) {
	presets := []gen.Params{gen.Small()}
	if !testing.Short() && !raceEnabled {
		presets = append(presets, gen.Medium())
	}
	for _, p := range presets {
		m := modelFrom(t, p)
		opts := DefaultOptions()
		opts.K = 2
		want := verdictsOn(t, SharedFrom(m, opts, nil, 1))
		for _, workers := range []int{2, 4} {
			if got := verdictsOn(t, SharedFrom(m, opts, nil, workers)); got != want {
				t.Fatalf("%d routers: a memo built on %d goroutines changes verdicts", m.Net.NumNodes(), workers)
			}
		}
	}
}

// TestSharedFromReuse pins what SharedFrom propagates: everything when
// cold, nothing when handed the memo of a model that differs in nothing
// the IGP reads, and everything again at another failure budget.
func TestSharedFromReuse(t *testing.T) {
	m := modelFrom(t, gen.Small())
	opts := DefaultOptions()
	opts.K = 1
	count := func(f func()) int64 {
		before := igp.Propagations()
		f()
		return igp.Propagations() - before
	}
	var cold *Shared
	if n := count(func() { cold = NewShared(m, opts) }); n == 0 || int(n) != cold.IGPMemo().NumDestinations() || cold.Err() != nil {
		t.Fatalf("cold Shared: %d propagations for %d destinations (%v)", n, cold.IGPMemo().NumDestinations(), cold.Err())
	}
	if cold.IGPMemo().Key() != IGPKey(m, opts) {
		t.Fatal("IGPKey disagrees with the key of the memo SharedFrom builds")
	}
	if n := count(func() { SharedFrom(m, opts, cold.IGPMemo(), 2) }); n != 0 {
		t.Fatalf("a Shared handed its own memo ran %d propagations", n)
	}
	opts.K = 2
	if n := count(func() { SharedFrom(m, opts, cold.IGPMemo(), 2) }); int(n) != cold.IGPMemo().NumDestinations() {
		t.Fatalf("another failure budget reused %d RIBs built for K=1", cold.IGPMemo().NumDestinations()-int(n))
	}
}

// TestBaseImportsOnlySessionRoots pins what a simulator's session base
// takes from the memo: exactly the reachability conditions of its
// IGP-riding sessions. After the base, its factory holds as many formula
// nodes as a simulator of the same Shared before its first pass (which
// holds the direct sessions' conditions alone) that imports those
// sessions' two conditions each and nothing else — and fewer than one
// that imports every node's condition toward the same destinations. Run under -race
// -count=10 by `make determinism`, on gen.Small there.
func TestBaseImportsOnlySessionRoots(t *testing.T) {
	presets := []gen.Params{gen.Small()}
	if !testing.Short() && !raceEnabled {
		presets = append(presets, gen.Medium())
	}
	for _, p := range presets {
		m := modelFrom(t, p)
		for _, k := range []int{1, 3} {
			opts := DefaultOptions()
			opts.K = k
			sh := NewShared(m, opts)
			memo := sh.IGPMemo()
			sim := sh.NewSimulator()
			sim.buildBase()

			only, every := sh.NewSimulator(), sh.NewSimulator()
			nodes := make([]topo.NodeID, m.Net.NumNodes())
			for i := range nodes {
				nodes[i] = topo.NodeID(i)
			}
			sessions := 0
			for _, se := range only.sessions {
				if !se.viaIGP {
					continue
				}
				sessions++
				f := only.F
				f.And(memo.Reach(f, se.to, []topo.NodeID{se.from})[0], memo.Reach(f, se.from, []topo.NodeID{se.to})[0])
				memo.Reach(every.F, se.to, nodes)
				memo.Reach(every.F, se.from, nodes)
			}
			if sessions == 0 {
				t.Fatalf("%d routers K=%d: no session in the base", m.Net.NumNodes(), k)
			}
			if got, want := sim.F.NumNodes(), only.F.NumNodes(); got != want {
				t.Fatalf("%d routers K=%d: the base holds %d formula nodes, its %d sessions' conditions alone %d", m.Net.NumNodes(), k, got, sessions, want)
			}
			if sim.F.NumNodes() >= every.F.NumNodes() {
				t.Fatalf("%d routers K=%d: the base holds %d formula nodes, every node's conditions toward its endpoints %d", m.Net.NumNodes(), k, sim.F.NumNodes(), every.F.NumNodes())
			}
			t.Logf("%d routers K=%d: %d sessions, base %d formula nodes, every root %d", m.Net.NumNodes(), k, sessions, sim.F.NumNodes(), every.F.NumNodes())
		}
	}
}
