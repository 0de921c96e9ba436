package igp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// randomLevelNet is a seeded random IS-IS net built to stress the
// ranking: 6–9 routers in two regions at random levels (L1, L2, L1/L2,
// some L1/L2 routers penetrating), a spanning tree plus chords with
// weights from {1, 2, 3} so that equal-cost paths abound, and a few
// parallel links, some at the weight of the link they double.
func randomLevelNet(t *testing.T, seed int64) (*topo.Network, []*config.Device) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(4)
	net := topo.NewNetwork()
	cfgs := make([]*config.Device, n)
	for i := range n {
		name := fmt.Sprintf("r%d", i)
		net.MustAddNode(topo.Node{Name: name, Region: fmt.Sprintf("east%d", rng.Intn(2))})
		text := "hostname " + name + "\nrouter isis\n level " + []string{"1", "2", "12", "12"}[rng.Intn(4)] + "\n"
		if rng.Intn(2) == 0 {
			text += " penetrate\n"
		}
		d, err := config.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = d
	}
	link := func(a, b int) {
		if a != b {
			net.MustAddLink(topo.NodeID(a), topo.NodeID(b), uint32(1+rng.Intn(3)))
		}
	}
	for i := 1; i < n; i++ {
		link(rng.Intn(i), i)
	}
	for range 3 {
		link(rng.Intn(n), rng.Intn(n))
	}
	for range 2 {
		l := net.Link(topo.LinkID(rng.Intn(net.NumLinks())))
		w := l.Weight
		if rng.Intn(2) == 0 {
			w = uint32(1 + rng.Intn(3))
		}
		net.MustAddLink(l.A, l.B, w)
	}
	return net, cfgs
}

// checkNextHops compares, on every world given, every node's next hop
// toward every destination with the first hop of the K=0 fixpoint on the
// topology without the world's links, and returns how many (world,
// destination, node) triples it checked.
func checkNextHops(t *testing.T, name string, net *topo.Network, cfgs []*config.Device, k int, worlds []topo.FailureScenario) int {
	t.Helper()
	f := logic.NewFactoryOrdered(net.VarOrder())
	e := New(net, cfgs, f, Options{K: k, PruneOverK: true})
	checked := 0
	for _, w := range worlds {
		ref := New(net.Without(w), cfgs, logic.NewFactory(), Options{K: 0, PruneOverK: true})
		for dst := range topo.NodeID(net.NumNodes()) {
			rib, complete := ribOf(ref, dst)
			if !complete {
				t.Fatalf("%s: the reference fixpoint toward %d hit the step cap", name, dst)
			}
			for u := range topo.NodeID(net.NumNodes()) {
				want := topo.NoNode
				if alts := rib[u]; u != dst && len(alts) > 0 {
					want = alts[0].Path[len(alts[0].Path)-2]
				}
				if got := hopUnder(t, f, e.NextHops(dst, u), w...); got != want {
					t.Fatalf("%s, K=%d, failed %v: %s's first hop toward %s is %d, the fixpoint's %d",
						name, k, w, net.Node(u).Name, net.Node(dst).Name, got, want)
				}
				checked++
			}
		}
	}
	return checked
}

// allWorlds lists every set of at most k of net's links.
func allWorlds(net *topo.Network, k int) []topo.FailureScenario {
	var out []topo.FailureScenario
	for kk := 0; kk <= k; kk++ {
		net.EnumerateFailures(kk, func(fs topo.FailureScenario) bool {
			out = append(out, fs)
			return true
		})
	}
	return out
}

// sampleWorlds draws n sets of at most k distinct links of net.
func sampleWorlds(net *topo.Network, k, n int, seed int64) []topo.FailureScenario {
	rng := rand.New(rand.NewSource(seed))
	out := []topo.FailureScenario{nil}
	for len(out) < n {
		w := topo.FailureScenario{}
		for _, l := range rng.Perm(net.NumLinks())[:1+rng.Intn(k)] {
			w = append(w, topo.LinkID(l))
		}
		out = append(out, w)
	}
	return out
}

// TestNextHopMatchesUncappedPathVector pins NextHops to the fixpoint it
// replaces in the data plane: on every world of at most K failed links,
// the one hop whose condition holds is the first hop of the K=0 fixpoint
// on the topology without the world's links — a fixpoint no cap binds —
// and no hop holds where that fixpoint has no route. It covers every ≤K
// world of gen.Small at K 1–2, a seeded sample of its K=3 worlds, and
// every ≤K world of seeded random nets with L1/L2 levels, penetration,
// parallel links and equal-cost ties, some of whose routers are
// level-blocked (spfTree.blocked). Two engines asked for the same rows in
// the same order create the same formulas, byte for byte: the branching
// reads no map in iteration order. Run under -race -count=10 by `make
// determinism`, with gen.Small's K=2 worlds sampled there.
func TestNextHopMatchesUncappedPathVector(t *testing.T) {
	small, smallCfgs, _ := wanInputs(t, gen.Small())
	checked := checkNextHops(t, "gen.Small", small, smallCfgs, 1, allWorlds(small, 1))
	worlds := allWorlds(small, 2)
	if raceEnabled {
		worlds = sampleWorlds(small, 2, 100, 2)
	}
	checked += checkNextHops(t, "gen.Small", small, smallCfgs, 2, worlds)
	checked += checkNextHops(t, "gen.Small", small, smallCfgs, 3, sampleWorlds(small, 3, 60, 3))
	for seed := int64(1); seed <= 12; seed++ {
		net, cfgs := randomLevelNet(t, seed)
		k := 1 + int(seed%3)
		checked += checkNextHops(t, fmt.Sprintf("random net %d", seed), net, cfgs, k, allWorlds(net, k))
	}
	t.Logf("%d (world, destination, node) triples checked", checked)

	rows := func() []byte {
		f := logic.NewFactoryOrdered(small.VarOrder())
		e := New(small, smallCfgs, f, Options{K: 3, PruneOverK: true})
		var buf bytes.Buffer
		var conds []logic.F
		for dst := range topo.NodeID(small.NumNodes()) {
			for u := range topo.NodeID(small.NumNodes()) {
				for _, h := range e.NextHops(dst, u) {
					fmt.Fprintf(&buf, "%d %d %d\n", dst, u, h.Next)
					conds = append(conds, h.Cond)
				}
			}
		}
		b, err := json.Marshal(f.Export(conds...))
		if err != nil {
			t.Fatal(err)
		}
		return append(buf.Bytes(), b...)
	}
	if !bytes.Equal(rows(), rows()) {
		t.Fatal("two engines asked for the same next hops in the same order built different formulas")
	}
}

// BenchmarkNextHops is the data plane's next-hop cost at its largest:
// every node's next hops toward every destination of gen.Medium at K=3,
// in one engine and a new factory per iteration.
func BenchmarkNextHops(b *testing.B) {
	w, err := gen.Generate(gen.Medium())
	if err != nil {
		b.Fatal(err)
	}
	cfgs := make([]*config.Device, w.Net.NumNodes())
	for _, node := range w.Net.Nodes() {
		cfgs[node.ID] = w.Snap[node.Name]
	}
	b.ReportAllocs()
	for b.Loop() {
		e := New(w.Net, cfgs, logic.NewFactoryOrdered(w.Net.VarOrder()), Options{K: 3, PruneOverK: true})
		for dst := range topo.NodeID(w.Net.NumNodes()) {
			for u := range topo.NodeID(w.Net.NumNodes()) {
				e.NextHops(dst, u)
			}
		}
	}
}
