package igp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// keyInputs describes a small two-region network with every field the IGP
// reads set to something — names, regions, weights, levels, penetration,
// a metric override — in a form a test can edit before building it.
type keyInputs struct {
	names   []string
	regions []string
	extra   []topo.Node // fields the IGP does not read, per node
	links   [][3]int
	cfgs    []string
	opts    Options
}

func baseKeyInputs() keyInputs {
	return keyInputs{
		names:   []string{"a", "b", "c", "d"},
		regions: []string{"r0", "r0", "r1", "r1"},
		extra:   make([]topo.Node, 4),
		links:   [][3]int{{0, 1, 10}, {1, 2, 20}, {2, 3, 10}, {0, 3, 40}},
		cfgs: []string{
			"router isis\n level 1\n",
			"router isis\n level 12\n penetrate\n metric c 25\n",
			"router isis\n level 2\n",
			"router isis\n level 2\n",
		},
		opts: Options{K: 2, PruneOverK: true},
	}
}

func (in keyInputs) build(t *testing.T) (*topo.Network, []*config.Device) {
	t.Helper()
	net := topo.NewNetwork()
	cfgs := make([]*config.Device, len(in.names))
	for i, name := range in.names {
		node := in.extra[i]
		node.Name, node.Region = name, in.regions[i]
		net.MustAddNode(node)
		d, err := config.Parse("hostname " + name + "\n" + in.cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = d
	}
	for _, l := range in.links {
		net.MustAddLink(topo.NodeID(l[0]), topo.NodeID(l[1]), uint32(l[2]))
	}
	return net, cfgs
}

func (in keyInputs) key(t *testing.T) string {
	net, cfgs := in.build(t)
	return Key(net, cfgs, in.opts)
}

// TestKeyCoversWhatTheIGPReads mutates every input New and propagate read,
// one at a time, and requires the key to move; then everything they do not
// read, and requires it to stay. A field added to the IGP without being
// added to Key would let a carried memo serve RIBs computed for other
// inputs, so each read has its row here.
func TestKeyCoversWhatTheIGPReads(t *testing.T) {
	base := baseKeyInputs().key(t)
	if again := baseKeyInputs().key(t); again != base {
		t.Fatalf("equal inputs, different keys: %s vs %s", base, again)
	}
	moves := map[string]func(*keyInputs){
		"node name":      func(in *keyInputs) { in.names[3] = "z" },
		"node region":    func(in *keyInputs) { in.regions[1] = "r1" },
		"node added":     func(in *keyInputs) { in.add("e", "r1", "router isis\n level 2\n") },
		"node order":     func(in *keyInputs) { in.swapNodes(2, 3) },
		"link weight":    func(in *keyInputs) { in.links[1][2] = 21 },
		"link endpoint":  func(in *keyInputs) { in.links[3] = [3]int{1, 3, 40} },
		"link added":     func(in *keyInputs) { in.links = append(in.links, [3]int{0, 2, 10}) },
		"link removed":   func(in *keyInputs) { in.links = in.links[:3] },
		"link order":     func(in *keyInputs) { in.links[0], in.links[1] = in.links[1], in.links[0] },
		"isis disabled":  func(in *keyInputs) { in.cfgs[2] = "" },
		"isis level":     func(in *keyInputs) { in.cfgs[2] = "router isis\n level 12\n" },
		"isis penetrate": func(in *keyInputs) { in.cfgs[1] = "router isis\n level 12\n metric c 25\n" },
		"metric value":   func(in *keyInputs) { in.cfgs[1] = "router isis\n level 12\n penetrate\n metric c 26\n" },
		"metric peer":    func(in *keyInputs) { in.cfgs[1] = "router isis\n level 12\n penetrate\n metric a 25\n" },
		"metric added":   func(in *keyInputs) { in.cfgs[1] += " metric a 7\n" },
		"metric removed": func(in *keyInputs) { in.cfgs[1] = "router isis\n level 12\n penetrate\n" },
		"opts K":         func(in *keyInputs) { in.opts.K = 3 },
		"opts prune":     func(in *keyInputs) { in.opts.PruneOverK = false },
	}
	seen := map[string]string{base: "base"}
	for name, edit := range moves {
		in := baseKeyInputs()
		edit(&in)
		k := in.key(t)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key equals that of %s", name, prev)
		}
		seen[k] = name
	}
	stays := map[string]func(*keyInputs){
		"node AS":     func(in *keyInputs) { in.extra[0].AS = 65000 },
		"node role":   func(in *keyInputs) { in.extra[1].Role = topo.RolePeer },
		"node vendor": func(in *keyInputs) { in.extra[2].Vendor = "beta" },
		"node group":  func(in *keyInputs) { in.extra[3].Group = "g" },
		"bgp, policy, static": func(in *keyInputs) {
			in.cfgs[0] += "router bgp 100\n neighbor b remote-as 100\n network 10.0.0.0/8\n" +
				"ip route 10.1.0.0/16 b\nroute-policy P permit 10\n set local-preference 200\n"
		},
	}
	for name, edit := range stays {
		in := baseKeyInputs()
		edit(&in)
		if k := in.key(t); k != base {
			t.Errorf("%s: the IGP never reads it, yet the key moved", name)
		}
	}
}

func (in *keyInputs) add(name, region, cfg string) {
	in.names, in.regions = append(in.names, name), append(in.regions, region)
	in.extra, in.cfgs = append(in.extra, topo.Node{}), append(in.cfgs, cfg)
}

func (in *keyInputs) swapNodes(i, j int) {
	in.names[i], in.names[j] = in.names[j], in.names[i]
	in.regions[i], in.regions[j] = in.regions[j], in.regions[i]
	in.cfgs[i], in.cfgs[j] = in.cfgs[j], in.cfgs[i]
}

// memoBytes serializes everything a memo holds, destination by
// destination in id order: each one's reachability conditions.
func memoBytes(t *testing.T, m *Memo) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "key %s\n", m.key)
	for _, dst := range slices.Sorted(maps.Keys(m.dsts)) {
		conds, err := json.Marshal(m.dsts[dst])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "dst %d %s\n", dst, conds)
	}
	return buf.Bytes()
}

func wanInputs(t *testing.T, p gen.Params) (*topo.Network, []*config.Device, []topo.NodeID) {
	t.Helper()
	w, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]*config.Device, w.Net.NumNodes())
	var dsts []topo.NodeID
	for _, node := range w.Net.Nodes() {
		cfgs[node.ID] = w.Snap[node.Name]
		dsts = append(dsts, node.ID)
	}
	return w.Net, cfgs, dsts
}

// TestMemoBuildDeterministic pins the byte half of the build's
// determinism (core's test of the same name pins the verdict half): the
// memo of a generated WAN is byte-identical run to run and at every
// parallelism, a memo filled in from a partial one equals a cold one, and
// so does one built a destination per Build call, last destination first
// — every RIB from a new factory, where a one-goroutine build runs them
// first to last through one recycled factory. The doubled-link row holds
// the order of alternatives tied over parallel links (equal weight, equal
// path) to one order. Run under -race -count=10 by `make determinism`.
func TestMemoBuildDeterministic(t *testing.T) {
	small, smallCfgs, smallDsts := wanInputs(t, gen.Small())
	square, squareCfgs := buildNet([]string{"a", "b", "c", "d"},
		[][3]int{{0, 1, 10}, {1, 2, 10}, {2, 3, 10}, {0, 3, 10}, {0, 1, 10}})
	for _, r := range []struct {
		name string
		net  *topo.Network
		cfgs []*config.Device
		dsts []topo.NodeID
		runs int
	}{
		{"gen.Small", small, smallCfgs, smallDsts, 2},
		{"doubled link", square, squareCfgs, []topo.NodeID{0, 1, 2, 3}, 10},
	} {
		opts := Options{K: 2, PruneOverK: true}
		build := func(dsts []topo.NodeID, have *Memo, workers int) *Memo {
			t.Helper()
			m, err := Build(r.net, r.cfgs, opts, dsts, have, workers)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		dsts := r.dsts
		want := memoBytes(t, build(dsts, nil, 1))
		for _, workers := range []int{1, 2, 4, 0} {
			for run := 0; run < r.runs; run++ {
				if got := memoBytes(t, build(dsts, nil, workers)); !bytes.Equal(got, want) {
					t.Fatalf("%s, workers=%d run %d: memo bytes differ from the one-goroutine build", r.name, workers, run)
				}
			}
		}
		half := build(dsts[:len(dsts)/2], nil, 2)
		if got := memoBytes(t, build(dsts, half, 2)); !bytes.Equal(got, want) {
			t.Fatalf("%s: a memo filled in from a partial one differs from a cold one", r.name)
		}
		var one *Memo
		for i := len(dsts) - 1; i >= 0; i-- {
			one = build(dsts[i:], one, 1)
		}
		if got := memoBytes(t, one); !bytes.Equal(got, want) {
			t.Fatalf("%s: a memo built one destination at a time, in reverse, differs from one built through a recycled factory", r.name)
		}
	}
}

func TestBuildReusesWhatHaveHolds(t *testing.T) {
	net, cfgs, dsts := wanInputs(t, gen.Small())
	opts := Options{K: 1, PruneOverK: true}
	count := func(f func()) int64 {
		before := Propagations()
		f()
		return Propagations() - before
	}
	var first, second, same, other *Memo
	var err error
	if n := count(func() { first, err = Build(net, cfgs, opts, dsts[:5], nil, 2) }); n != 5 || err != nil {
		t.Fatalf("cold build of 5 destinations ran %d propagations (%v)", n, err)
	}
	if n := count(func() { second, err = Build(net, cfgs, opts, dsts[:8], first, 2) }); n != 3 || err != nil {
		t.Fatalf("3 destinations were missing, %d propagations ran (%v)", n, err)
	}
	if first.NumDestinations() != 5 || second.NumDestinations() != 8 {
		t.Fatalf("memos hold %d and %d destinations, want 5 (untouched) and 8", first.NumDestinations(), second.NumDestinations())
	}
	for dst, mr := range first.dsts {
		if second.dsts[dst] != mr {
			t.Fatalf("destination %d was copied, not shared", dst)
		}
	}
	if n := count(func() { same, err = Build(net, cfgs, opts, dsts[:8], second, 2) }); n != 0 || same != second || err != nil {
		t.Fatalf("nothing was missing, yet %d propagations ran (same memo: %v, %v)", n, same == second, err)
	}
	// Another key: have is ignored, not consulted destination by destination.
	opts.K = 2
	if n := count(func() { other, err = Build(net, cfgs, opts, dsts[:8], second, 2) }); n != 8 || err != nil {
		t.Fatalf("a memo for another key saved %d of 8 propagations (%v)", 8-n, err)
	}
	if other.Key() == second.Key() {
		t.Fatal("K changed and the key did not")
	}
}

// TestMemoReachImportsOnlyWhatItTouches: a memo answers a session's two
// conditions without propagating, agrees with an engine that propagated
// them, and pays for the roots it is asked for: one node's condition
// toward every destination costs fewer formula nodes than every node's.
func TestMemoReachImportsOnlyWhatItTouches(t *testing.T) {
	net, cfgs, dsts := wanInputs(t, gen.Small())
	opts := Options{K: 2, PruneOverK: true}
	memo, err := Build(net, cfgs, opts, dsts, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := logic.NewFactory()
	plain := New(net, cfgs, f, opts)
	before := Propagations()
	a, b := dsts[0], dsts[len(dsts)-1]
	got := f.And(memo.Reach(f, b, []topo.NodeID{a})[0], memo.Reach(f, a, []topo.NodeID{b})[0])
	if n := Propagations() - before; n != 0 {
		t.Fatalf("reading the memo ran %d propagations", n)
	}
	if want := f.And(reachToward(plain, b)[a], reachToward(plain, a)[b]); !f.Equivalent(got, want) {
		t.Fatal("the memo and an engine disagree on a session condition")
	}
	one, all := logic.NewFactory(), logic.NewFactory()
	for _, dst := range dsts {
		memo.Reach(one, dst, []topo.NodeID{a})
		memo.Reach(all, dst, dsts)
	}
	if one.NumNodes() >= all.NumNodes() {
		t.Fatalf("one node's conditions cost %d formula nodes, all %d nodes' %d: the import is not per root", one.NumNodes(), len(dsts), all.NumNodes())
	}
}

// TestMemoReachMatchesEngine pins what the memo stores to the condition
// an engine's own fixpoint gives: on gen.Small at K 1–3, on the
// two-region L1/L2/penetration net and on the seeded random nets of
// TestPropagateMatchesReference, every root of every destination,
// imported into a fresh factory, is equivalent to the reachability
// condition an engine builds there (reach), and a node with no route
// gets False. Run under -race -count=10 by `make determinism`.
func TestMemoReachMatchesEngine(t *testing.T) {
	type row struct {
		name string
		net  *topo.Network
		cfgs []*config.Device
		dsts []topo.NodeID
		opts Options
	}
	var rows []row
	for k := 1; k <= 3; k++ {
		net, cfgs, dsts := wanInputs(t, gen.Small())
		rows = append(rows, row{fmt.Sprintf("gen.Small K=%d", k), net, cfgs, dsts, Options{K: k, PruneOverK: true}})
	}
	in := baseKeyInputs()
	net, cfgs := in.build(t)
	rows = append(rows, row{"two regions, L1/L2, penetrate", net, cfgs, []topo.NodeID{0, 1, 2, 3}, in.opts})
	for seed := int64(11); seed <= 14; seed++ {
		net, cfgs, dsts := wanInputs(t, seededParams(seed))
		rows = append(rows, row{fmt.Sprintf("gen seed %d", seed), net, cfgs, dsts, Options{K: 1 + int(seed%3), PruneOverK: true}})
	}
	for _, r := range rows {
		memo, err := Build(r.net, r.cfgs, r.opts, r.dsts, nil, 2)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		nodes := make([]topo.NodeID, r.net.NumNodes())
		for i := range nodes {
			nodes[i] = topo.NodeID(i)
		}
		for _, dst := range r.dsts {
			f := logic.NewFactoryOrdered(r.net.VarOrder())
			got := memo.Reach(f, dst, nodes)
			e := New(r.net, r.cfgs, f, r.opts)
			rib, _ := ribOf(e, dst)
			for _, n := range nodes {
				if want := e.reach(n, dst); !f.Equivalent(got[n], want) {
					t.Fatalf("%s: the memo's condition of %s toward %s differs from the engine's", r.name, r.net.Node(n).Name, r.net.Node(dst).Name)
				}
				if n != dst && len(rib[n]) == 0 && got[n] != logic.False {
					t.Fatalf("%s: %s has no route toward %s, yet its condition is not False", r.name, r.net.Node(n).Name, r.net.Node(dst).Name)
				}
			}
		}
	}
}

// TestBuildRefusesTruncatedRIB: a fixpoint the step cap cuts off is named
// in Build's error and never enters a memo, so no later build can carry
// it. An engine's next hops run no fixpoint, so the cap never cuts them.
func TestBuildRefusesTruncatedRIB(t *testing.T) {
	net, cfgs := buildNet([]string{"a", "b", "c", "d"}, [][3]int{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 1}})
	opts := DefaultOptions()
	whole, err := Build(net, cfgs, opts, []topo.NodeID{0, 3}, nil, 1)
	if err != nil || whole.NumDestinations() != 2 {
		t.Fatalf("uncapped build: %d destinations, %v", whole.NumDestinations(), err)
	}

	defer func(f int) { maxStepsFactor = f }(maxStepsFactor)
	maxStepsFactor = 0 // no step at all: every enabled destination is cut off
	m, err := Build(net, cfgs, opts, []topo.NodeID{0, 3}, nil, 2)
	if err == nil || !strings.Contains(err.Error(), "a, d") || !strings.Contains(err.Error(), "step cap") {
		t.Fatalf("capped build: error %v, want one naming a and d", err)
	}
	if m.NumDestinations() != 0 {
		t.Fatalf("the memo holds %d truncated RIBs", m.NumDestinations())
	}
	// What was whole stays carried; what was cut off is tried again.
	m, err = Build(net, cfgs, opts, []topo.NodeID{0, 1, 3}, whole, 2)
	if err == nil || !strings.Contains(err.Error(), " b ") || m.NumDestinations() != 2 {
		t.Fatalf("carried build: %d destinations, error %v; want the 2 whole ones and b refused", m.NumDestinations(), err)
	}
	if _, ok := m.dsts[1]; ok {
		t.Fatal("the memo holds a destination whose fixpoint was cut off")
	}
	e := New(net, cfgs, logic.NewFactory(), opts)
	if hops := e.NextHops(1, 0); len(hops) != 2 {
		t.Fatalf("a's next hops toward b under the step cap: %+v, want b and d", hops)
	}
}
