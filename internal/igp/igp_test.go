package igp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hoyan/internal/config"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// buildNet creates a network where every node runs IS-IS L2 in one region.
// links: list of [a, b, weight].
func buildNet(names []string, links [][3]int) (*topo.Network, []*config.Device) {
	net := topo.NewNetwork()
	cfgs := make([]*config.Device, len(names))
	for i, n := range names {
		net.MustAddNode(topo.Node{Name: n, AS: 100, Region: "r0"})
		d, err := config.Parse("hostname " + n + "\nrouter isis\n level 2\n")
		if err != nil {
			panic(err)
		}
		cfgs[i] = d
	}
	for _, l := range links {
		net.MustAddLink(topo.NodeID(l[0]), topo.NodeID(l[1]), uint32(l[2]))
	}
	return net, cfgs
}

func TestLinearChainReachability(t *testing.T) {
	// a - b - c
	net, cfgs := buildNet([]string{"a", "b", "c"}, [][3]int{{0, 1, 10}, {1, 2, 10}})
	f := logic.NewFactory()
	e := New(net, cfgs, f, DefaultOptions())

	cond := reachToward(e, 2)[0]
	// Reachable with all links up; one failure of either link breaks it.
	if f.Impossible(cond) {
		t.Fatal("a must reach c")
	}
	if got := f.MinFailuresToViolate(cond); got != 1 {
		t.Fatalf("chain dies with 1 failure, got %d", got)
	}
	if reachToward(e, 0)[0] != logic.True {
		t.Fatal("self reachability is unconditional")
	}
}

func TestDiamondSurvivesOneFailure(t *testing.T) {
	// a-b, a-c, b-d, c-d: two disjoint paths a→d.
	net, cfgs := buildNet([]string{"a", "b", "c", "d"},
		[][3]int{{0, 1, 10}, {0, 2, 10}, {1, 3, 10}, {2, 3, 10}})
	f := logic.NewFactory()
	e := New(net, cfgs, f, DefaultOptions())
	cond := reachToward(e, 3)[0]
	if got := f.MinFailuresToViolate(cond); got != 2 {
		t.Fatalf("diamond needs 2 failures to cut, got %d", got)
	}
}

// hopUnder returns the one hop of hops whose condition holds on the
// world where the links in failed are down, or NoNode when none does.
func hopUnder(t *testing.T, f *logic.Factory, hops []Hop, failed ...topo.LinkID) topo.NodeID {
	t.Helper()
	asn := topo.FailureScenario(failed).Assignment()
	got := topo.NoNode
	for _, h := range hops {
		if f.Eval(h.Cond, asn) {
			if got != topo.NoNode {
				t.Fatalf("failed %v: hops %d and %d both hold", failed, got, h.Next)
			}
			got = h.Next
		}
	}
	return got
}

func TestNextHopPrefersLowerWeight(t *testing.T) {
	// a-b direct weight 100; a-c-b weight 10+10.
	net, cfgs := buildNet([]string{"a", "b", "c"},
		[][3]int{{0, 1, 100}, {0, 2, 10}, {2, 1, 10}})
	f := logic.NewFactory()
	e := New(net, cfgs, f, DefaultOptions())
	hops := e.NextHops(1, 0)
	if got := hopUnder(t, f, hops); got != 2 {
		t.Fatalf("all links up: a's hop toward b is %d, want c", got)
	}
	if got := hopUnder(t, f, hops, 1); got != 1 {
		t.Fatalf("a-c down: a's hop toward b is %d, want b", got)
	}
	if got := hopUnder(t, f, hops, 0, 2); got != topo.NoNode {
		t.Fatalf("a-b and c-b down: a has hop %d toward b, want none", got)
	}
}

func TestMetricOverride(t *testing.T) {
	// Same triangle, but node a overrides its interface toward c to 500,
	// making the direct a-b link best.
	net, cfgs := buildNet([]string{"a", "b", "c"},
		[][3]int{{0, 1, 100}, {0, 2, 10}, {2, 1, 10}})
	cfgs[0].ISIS.Metrics["c"] = 500
	f := logic.NewFactory()
	e := New(net, cfgs, f, DefaultOptions())
	if best, _ := bestEntry(e, 0, 1); best.Weight != 100 {
		t.Fatalf("override must push best to direct link, got %d", best.Weight)
	}
	if got := hopUnder(t, f, e.NextHops(1, 0)); got != 1 {
		t.Fatalf("override must make b a's first hop toward b, got %d", got)
	}
}

// TestAssembleIsStableSort pins assemble's merge to the stable sort of
// the slots concatenated in slot order, cut at maxAlternatives: random
// ranked slots over a few weights, lengths and nodes, so that many
// entries tie across slots, each entry told apart by its condition id,
// with and without the destination's route to itself.
func TestAssembleIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	id := logic.F(2)
	entry := func() Entry {
		path := make([]topo.NodeID, 2+rng.Intn(2))
		for i := range path {
			path[i] = topo.NodeID(rng.Intn(2))
		}
		id++
		return Entry{Weight: uint32(rng.Intn(3)), Path: path, Cond: id, Level: L2}
	}
	for trial := range 500 {
		nslots := 1 + rng.Intn(5)
		fp := &fixpoint{base: []int{0, nslots}, slots: make([][]Entry, nslots), heads: make([]int, nslots)}
		var all []Entry
		dst := topo.NodeID(trial % 2) // the route to itself is in on even trials
		self := Entry{Path: []topo.NodeID{dst}, Cond: logic.True, Level: L2}
		if dst == 0 {
			all = append(all, self)
		}
		for s := range fp.slots {
			for range rng.Intn(6) {
				fp.slots[s] = append(fp.slots[s], entry())
			}
			slices.SortStableFunc(fp.slots[s], cmpEntry)
			all = append(all, fp.slots[s]...)
		}
		slices.SortStableFunc(all, cmpEntry)
		want := all[:min(len(all), maxAlternatives)]
		got := fp.assemble(0, dst, self)
		if !slices.EqualFunc(got, want, func(a, b Entry) bool { return a.Cond == b.Cond }) {
			t.Fatalf("trial %d: merged %v, the stable sort ranks %v", trial, got, want)
		}
	}
}

// TestPathWeightNeverWraps pins that a path whose weight would pass
// 2³²−1 is not offered. Toward a, c's way round through b would weigh
// 8e9, which wraps to about 3.7e9 and would rank above c's direct link
// at 3.9e9; it is dropped, as IS-IS drops a path past its largest path
// metric. A wrapped weight would also leave a slot out of its upstream's
// order, which assemble's merge relies on.
func TestPathWeightNeverWraps(t *testing.T) {
	net, cfgs := buildNet([]string{"a", "b", "c"},
		[][3]int{{0, 1, 4_000_000_000}, {1, 2, 4_000_000_000}, {0, 2, 3_900_000_000}})
	f := logic.NewFactory()
	e := New(net, cfgs, f, DefaultOptions())
	rib, _ := ribOf(e, 0)
	if alts := rib[2]; len(alts) != 1 || alts[0].Weight != 3_900_000_000 || len(alts[0].Path) != 2 {
		t.Fatalf("c's alternatives toward a: %+v, want the direct link alone", alts)
	}
	if hops := e.NextHops(0, 2); len(hops) != 1 || hops[0].Next != 0 {
		t.Fatalf("c's next hops toward a: %+v, want a alone", hops)
	}
}

func TestSessionCondSymmetricAndFailureAware(t *testing.T) {
	net, cfgs := buildNet([]string{"a", "b", "c"}, [][3]int{{0, 1, 10}, {1, 2, 10}})
	f := logic.NewFactory()
	e := New(net, cfgs, f, DefaultOptions())
	// An iBGP session's condition: IS-IS reachability both ways.
	sessionCond := func(a, b topo.NodeID) logic.F { return f.And(reachToward(e, b)[a], reachToward(e, a)[b]) }
	sc := sessionCond(0, 2)
	if !f.Equivalent(sc, sessionCond(2, 0)) {
		t.Fatal("session condition must be symmetric")
	}
	if got := f.MinFailuresToViolate(sc); got != 1 {
		t.Fatalf("session over a chain dies with 1 failure, got %d", got)
	}
}

func TestNonISISNodeUnreachable(t *testing.T) {
	net, cfgs := buildNet([]string{"a", "b"}, [][3]int{{0, 1, 10}})
	cfgs[1].ISIS = nil
	f := logic.NewFactory()
	e := New(net, cfgs, f, DefaultOptions())
	if !f.Impossible(reachToward(e, 1)[0]) {
		t.Fatal("node without IS-IS must be IGP-unreachable")
	}
	if !f.Impossible(reachToward(e, 0)[1]) {
		t.Fatal("and vice versa")
	}
}

func TestL1AreasIsolatedWithoutPenetration(t *testing.T) {
	// Two regions: a,b L1 in east; c,d L1 in west; b,c are L1/L2 border
	// routers (level 12) with a level-2 link between them.
	net := topo.NewNetwork()
	mk := func(name, region string, level string, penetrate bool) topo.NodeID {
		id := net.MustAddNode(topo.Node{Name: name, Region: region})
		return id
	}
	a := mk("a", "east", "1", false)
	b := mk("b", "east", "12", false)
	c := mk("c", "west", "12", false)
	d := mk("d", "west", "1", false)
	net.MustAddLink(a, b, 10)
	net.MustAddLink(b, c, 10)
	net.MustAddLink(c, d, 10)
	mkCfg := func(name, level string, penetrate bool) *config.Device {
		text := "hostname " + name + "\nrouter isis\n level " + level + "\n"
		if penetrate {
			text += " penetrate\n"
		}
		cfg, err := config.Parse(text)
		if err != nil {
			panic(err)
		}
		return cfg
	}
	cfgs := []*config.Device{
		mkCfg("a", "1", false), mkCfg("b", "12", false),
		mkCfg("c", "12", false), mkCfg("d", "1", false),
	}
	f := logic.NewFactory()
	e := New(net, cfgs, f, DefaultOptions())
	// Without penetration, a's L1 routes never leave the east area.
	if !f.Impossible(reachToward(e, 0)[3]) {
		t.Fatal("L1 route must not cross areas without penetration")
	}
	// With penetration on b, a becomes reachable from d.
	cfgs[1].ISIS.Penetrate = true
	f2 := logic.NewFactory()
	e2 := New(net, cfgs, f2, DefaultOptions())
	if f2.Impossible(reachToward(e2, 0)[3]) {
		t.Fatal("penetration must export L1 routes to L2")
	}
}

func TestSPFCrossCheck(t *testing.T) {
	// The paper validated the path-vector reduction against real IS-IS for
	// a year; we validate against Dijkstra on random graphs.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 7
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		var links [][3]int
		// Random connected-ish graph.
		for i := 1; i < n; i++ {
			links = append(links, [3]int{rng.Intn(i), i, 1 + rng.Intn(20)})
		}
		for i := 0; i < 4; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				links = append(links, [3]int{a, b, 1 + rng.Intn(20)})
			}
		}
		net, cfgs := buildNet(names, links)
		f := logic.NewFactory()
		e := New(net, cfgs, f, Options{K: 3, PruneOverK: true})
		for trial := 0; trial < 6; trial++ {
			src := topo.NodeID(rng.Intn(n))
			dst := topo.NodeID(rng.Intn(n))
			if src == dst {
				continue
			}
			want, reachable := e.SPFDistance(src, dst, nil)
			best, got := bestEntry(e, src, dst)
			if got != reachable {
				return false
			}
			if reachable && best.Weight != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPruneOverKLimitsAlternatives(t *testing.T) {
	// A long chain with K=1: conditions needing 2+ failures are pruned, so
	// alternatives stay small even on a dense graph.
	net, cfgs := buildNet([]string{"a", "b", "c", "d", "e"},
		[][3]int{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {0, 2, 5}, {1, 3, 5}, {2, 4, 5}})
	f := logic.NewFactory()
	e := New(net, cfgs, f, Options{K: 1, PruneOverK: true})
	rib, _ := ribOf(e, 4)
	for n, entries := range rib {
		for _, ent := range entries {
			if mf := f.MinFalse(ent.Cond); mf > 1 {
				t.Fatalf("node %d kept a >1-failure alternative (minFalse=%d)", n, mf)
			}
		}
	}
}

// TestNextHopsMemoized: a second NextHops call for a (destination, node)
// returns the very answer the first computed and creates no formula;
// after a Recycle the row is branched again. No call runs a fixpoint.
func TestNextHopsMemoized(t *testing.T) {
	net, cfgs := buildNet([]string{"a", "b"}, [][3]int{{0, 1, 10}})
	f := logic.NewFactory()
	e := New(net, cfgs, f, DefaultOptions())
	before := Propagations()
	h1 := e.NextHops(1, 0)
	formulas := f.NumNodes()
	h2 := e.NextHops(1, 0)
	if f.NumNodes() != formulas {
		t.Fatalf("the memoized row created %d more formulas", f.NumNodes()-formulas)
	}
	if len(h1) != 1 || &h1[0] != &h2[0] {
		t.Fatal("a memoized row must come back as the same answer")
	}
	e.Recycle()
	if h3 := e.NextHops(1, 0); len(h3) != 1 || &h3[0] == &h1[0] || h3[0].Next != 1 {
		t.Fatalf("after a Recycle: %+v, want a new answer with a's hop b", h3)
	}
	if n := Propagations() - before; n != 0 {
		t.Fatalf("next hops ran %d fixpoints", n)
	}
}

// ribOf runs the fixpoint toward dst and returns the RIB it reached, as
// propagate once returned it: dst and every adjacency peer of a node that
// propagated, each with its ranked alternatives.
func ribOf(e *Engine, dst topo.NodeID) (map[topo.NodeID][]Entry, bool) {
	complete := e.propagate(dst)
	rib := map[topo.NodeID][]Entry{}
	if !e.cfg[dst].enabled {
		return rib, complete
	}
	self := Entry{Path: []topo.NodeID{dst}, Cond: logic.True, Level: L2}
	if e.cfg[dst].level == 1 {
		self.Level = L1
	}
	fp := e.fp
	for v, arcs := range fp.arcs {
		if topo.NodeID(v) == dst || slices.ContainsFunc(arcs, func(a arc) bool { return fp.didSend[a.to] }) {
			rib[topo.NodeID(v)] = slices.Clone(fp.assemble(topo.NodeID(v), dst, self))
		}
	}
	return rib, complete
}

// reachToward runs the fixpoint toward `to` and returns every node's
// reachability condition toward it: the roots the memo stores.
func reachToward(e *Engine, to topo.NodeID) []logic.F {
	e.propagate(to)
	out := make([]logic.F, e.net.NumNodes())
	for n := range out {
		out[n] = e.reach(topo.NodeID(n), to)
	}
	return out
}

// bestEntry returns the fixpoint's best alternative at n toward dst.
func bestEntry(e *Engine, n, dst topo.NodeID) (Entry, bool) {
	rib, _ := ribOf(e, dst)
	if len(rib[n]) == 0 {
		return Entry{}, false
	}
	return rib[n][0], true
}
