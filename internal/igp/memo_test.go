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
// destination in id order.
func memoBytes(t *testing.T, m *Memo) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "key %s\n", m.key)
	for _, dst := range slices.Sorted(maps.Keys(m.dsts)) {
		mr := m.dsts[dst]
		conds, err := json.Marshal(mr.conds)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "dst %d nodes %v\n", dst, mr.nodes)
		for i := range mr.nodes {
			for _, e := range mr.entries[i] {
				fmt.Fprintf(&buf, " %d %v %d\n", e.weight, e.path, e.level)
			}
		}
		buf.Write(conds)
		buf.WriteByte('\n')
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
// first to last through one recycled factory. Run under -race -count=10
// by `make determinism`.
func TestMemoBuildDeterministic(t *testing.T) {
	net, cfgs, dsts := wanInputs(t, gen.Small())
	opts := Options{K: 2, PruneOverK: true}
	build := func(dsts []topo.NodeID, have *Memo, workers int) *Memo {
		t.Helper()
		m, err := Build(net, cfgs, opts, dsts, have, workers)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	want := memoBytes(t, build(dsts, nil, 1))
	for _, workers := range []int{1, 2, 4, 0} {
		for run := 0; run < 2; run++ {
			if got := memoBytes(t, build(dsts, nil, workers)); !bytes.Equal(got, want) {
				t.Fatalf("workers=%d run %d: memo bytes differ from the one-goroutine build", workers, run)
			}
		}
	}
	half := build(dsts[:len(dsts)/2], nil, 2)
	if got := memoBytes(t, build(dsts, half, 2)); !bytes.Equal(got, want) {
		t.Fatal("a memo filled in from a partial one differs from a cold one")
	}
	var one *Memo
	for i := len(dsts) - 1; i >= 0; i-- {
		one = build(dsts[i:], one, 1)
	}
	if got := memoBytes(t, one); !bytes.Equal(got, want) {
		t.Fatal("a memo built one destination at a time, in reverse, differs from one built through a recycled factory")
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

// TestSeededEngineImportsOnlyWhatItTouches: a seeded engine answers from
// the memo without propagating, agrees with an unseeded one, and pays for
// one destination's conditions when it asks about one destination.
func TestSeededEngineImportsOnlyWhatItTouches(t *testing.T) {
	net, cfgs, dsts := wanInputs(t, gen.Small())
	opts := Options{K: 2, PruneOverK: true}
	memo, err := Build(net, cfgs, opts, dsts, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := logic.NewFactory()
	seeded := New(net, cfgs, f, opts)
	seeded.Seed(memo)
	plain := New(net, cfgs, f, opts)
	before := Propagations()
	a, b := dsts[0], dsts[len(dsts)-1]
	got := seeded.SessionCond(a, b)
	if n := Propagations() - before; n != 0 {
		t.Fatalf("a seeded engine ran %d propagations", n)
	}
	one := f.NumNodes()
	if want := plain.SessionCond(a, b); !f.Equivalent(got, want) {
		t.Fatal("seeded and unseeded engines disagree on a session condition")
	}
	all := logic.NewFactory()
	whole := New(net, cfgs, all, opts)
	whole.Seed(memo)
	for _, dst := range dsts {
		whole.RIB(dst)
	}
	if one >= all.NumNodes() {
		t.Fatalf("two destinations cost %d formula nodes, all %d cost %d: the import is not per destination", one, len(dsts), all.NumNodes())
	}
}

// TestBuildRefusesTruncatedRIB: a fixpoint the step cap cuts off is named
// in Build's error and never enters a memo, so no later build can carry
// it; engines still get an answer, as they always did.
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
	e := New(net, cfgs, logic.NewFactory(), opts)
	e.Seed(m)
	if rib := e.RIB(1); rib == nil {
		t.Fatal("an engine must still answer for a destination its memo lacks")
	}
}
