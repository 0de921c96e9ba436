package igp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// referencePropagate is the map-based fixpoint propagate replaced, kept
// as the byte-identity reference: contributions in a map per node keyed
// by adjacency, the guard chain rebuilt for every neighbour, a path copy
// for every candidate, every dequeued node propagated again. On a network
// with parallel links its output order is not defined (it concatenates
// contributions in map order), so it is compared only on networks
// without them.
func referencePropagate(e *Engine, dst topo.NodeID) (rib map[topo.NodeID][]Entry, complete bool) {
	if !e.cfg[dst].enabled {
		return map[topo.NodeID][]Entry{}, true
	}
	level := L2
	if e.cfg[dst].level == 1 {
		level = L1
	}
	type adjKey struct {
		from topo.NodeID
		link topo.LinkID
	}
	contrib := map[topo.NodeID]map[adjKey][]Entry{}
	self := Entry{Weight: 0, Path: []topo.NodeID{dst}, Cond: logic.True, Level: level}
	contrib[dst] = map[adjKey][]Entry{{from: dst, link: topo.NoLink}: {self}}

	assemble := func(n topo.NodeID) []Entry {
		var all []Entry
		for _, es := range contrib[n] {
			all = append(all, es...)
		}
		slices.SortFunc(all, cmpEntry)
		if len(all) > maxAlternatives {
			all = all[:maxAlternatives]
		}
		return all
	}

	queue := []topo.NodeID{dst}
	inQueue := map[topo.NodeID]bool{dst: true}
	steps := 0
	maxSteps := maxStepsFactor * e.net.NumNodes() * e.net.NumNodes() * (maxAlternatives + 1)
	for len(queue) > 0 && steps < maxSteps {
		steps++
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		entries := assemble(u)
		for _, ad := range e.net.Neighbors(u) {
			v := ad.Peer
			if !e.adjacent(u, v) {
				continue
			}
			var out []Entry
			notHigher := logic.True
			for _, ent := range entries {
				lvl, ok := e.crossLevel(ent.Level, u, v)
				if !ok {
					notHigher = e.f.And(notHigher, e.f.Not(ent.Cond))
					continue
				}
				if containsNode(ent.Path, v) {
					notHigher = e.f.And(notHigher, e.f.Not(ent.Cond))
					continue
				}
				cond := e.f.AndAll(notHigher, ent.Cond, e.f.Var(e.net.AliveVar(ad.Link)))
				notHigher = e.f.And(notHigher, e.f.Not(ent.Cond))
				if e.f.Impossible(cond) {
					continue
				}
				if e.opts.PruneOverK && e.f.MinFalse(cond) > e.opts.K {
					continue
				}
				path := append(append([]topo.NodeID(nil), ent.Path...), v)
				out = append(out, Entry{
					Weight: ent.Weight + e.linkWeight(v, u, ad.Link),
					Path:   path,
					Cond:   cond,
					Level:  lvl,
				})
			}
			if contrib[v] == nil {
				contrib[v] = map[adjKey][]Entry{}
			}
			key := adjKey{from: u, link: ad.Link}
			if !referenceEntriesEqual(e.f, contrib[v][key], out) {
				contrib[v][key] = out
				if !inQueue[v] {
					inQueue[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	rib = map[topo.NodeID][]Entry{}
	for n := range contrib {
		rib[n] = assemble(n)
	}
	return rib, len(queue) == 0
}

func referenceEntriesEqual(f *logic.Factory, a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Weight != b[i].Weight || a[i].Level != b[i].Level ||
			len(a[i].Path) != len(b[i].Path) || !f.Equivalent(a[i].Cond, b[i].Cond) {
			return false
		}
		for j := range a[i].Path {
			if a[i].Path[j] != b[i].Path[j] {
				return false
			}
		}
	}
	return true
}

// exportRIB is export over a RIB map: root n is True at dst, else the
// disjunction of n's alternatives, False when it has none.
func exportRIB(e *Engine, dst topo.NodeID, rib map[topo.NodeID][]Entry) *logic.Portable {
	roots := make([]logic.F, e.net.NumNodes())
	for n := range roots {
		roots[n] = logic.True
		if topo.NodeID(n) != dst {
			roots[n] = logic.False
			for _, ent := range rib[topo.NodeID(n)] {
				roots[n] = e.f.Or(roots[n], ent.Cond)
			}
		}
	}
	return e.f.Export(roots...)
}

// ribsBy propagates every destination in dsts by propagate, each in a
// new factory. It returns every RIB's bytes (destination by destination:
// its nodes, their entries and the entries' exported conditions), the
// memo of those RIBs' reachability conditions, and the BDD nodes the
// factories built in all.
func ribsBy(t *testing.T, propagate func(*Engine, topo.NodeID) (map[topo.NodeID][]Entry, bool),
	net *topo.Network, configs []*config.Device, opts Options, dsts []topo.NodeID) (ribs []byte, m *Memo, solverNodes int) {
	t.Helper()
	var buf bytes.Buffer
	m = &Memo{key: Key(net, configs, opts), dsts: map[topo.NodeID]*logic.Portable{}}
	cfg := isisConfigs(net, configs)
	for _, dst := range dsts {
		e := newEngine(net, cfg, logic.NewFactoryOrdered(net.VarOrder()), opts)
		rib, complete := propagate(e, dst)
		if !complete {
			t.Fatalf("the fixpoint toward %d hit the step cap", dst)
		}
		nodes := slices.Sorted(maps.Keys(rib))
		fmt.Fprintf(&buf, "dst %d nodes %v\n", dst, nodes)
		var conds []logic.F
		for _, n := range nodes {
			for _, ent := range rib[n] {
				fmt.Fprintf(&buf, " %d %v %d\n", ent.Weight, ent.Path, ent.Level)
				conds = append(conds, ent.Cond)
			}
		}
		b, err := json.Marshal(e.f.Export(conds...))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
		m.dsts[dst] = exportRIB(e, dst, rib)
		solverNodes += e.f.SolverNodes()
	}
	return buf.Bytes(), m, solverNodes
}

// TestFixpointSkipsDecidedBDDs pins what the dead-guard and guard-first
// rules save, as solver work: on gen.Medium at K=1 the fixpoint's
// factories build at most half the BDD nodes the reference's build for
// the same destinations, and export the same RIB bytes. Both rules build
// 35 % of the reference's nodes; without the dead guard it is 82 %,
// without the guard-first conjunction 39 %.
func TestFixpointSkipsDecidedBDDs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("gen.Medium through the reference fixpoint")
	}
	net, cfgs, dsts := wanInputs(t, gen.Medium())
	opts := Options{K: 1, PruneOverK: true}
	got, _, gotNodes := ribsBy(t, ribOf, net, cfgs, opts, dsts)
	want, _, wantNodes := ribsBy(t, referencePropagate, net, cfgs, opts, dsts)
	if !bytes.Equal(got, want) {
		t.Fatal("RIB bytes differ from the reference fixpoint's")
	}
	if 2*gotNodes > wantNodes {
		t.Fatalf("the fixpoint built %d BDD nodes, the reference %d: want at most half", gotNodes, wantNodes)
	}
	t.Logf("BDD nodes: %d, the reference %d", gotNodes, wantNodes)
}

// seededParams is one of the small seeded random WANs the fixpoint and
// the memo are pinned on: 2–3 regions, 2–3 cores each, extra core links.
func seededParams(seed int64) gen.Params {
	return gen.Params{Seed: seed, Regions: 2 + int(seed%2), CoresPerRegion: 2 + int(seed%3)%2, PEsPerRegion: 3,
		MANsPerRegion: 1, PeersPerRegion: 1, PrefixesPerPeer: 1, ExtraCoreLinks: 2, WANAS: 64500}
}

// hasParallelLinks reports whether two links share both endpoints.
func hasParallelLinks(net *topo.Network) bool {
	seen := map[[2]topo.NodeID]bool{}
	for _, l := range net.Links() {
		k := [2]topo.NodeID{min(l.A, l.B), max(l.A, l.B)}
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

// TestPropagateMatchesReference pins the fixpoint to the map-based one it
// replaced, byte for byte: every RIB's nodes, entries and exported
// conditions, and the memo Build makes of them. Export's bytes follow the
// formulas, not the order they were made in, so this holds the guard
// chain built once per dequeue, the dead-guard prune that builds no
// candidate, the paths copied only when they differ, the skipped
// unchanged nodes and the merge to the same formulas and entries as the
// reference. Run under -race -count=10 by `make determinism`; gen.Medium
// is skipped there and under -short.
func TestPropagateMatchesReference(t *testing.T) {
	type row struct {
		name string
		net  *topo.Network
		cfgs []*config.Device
		dsts []topo.NodeID
		opts Options
	}
	var rows []row
	wan := func(name string, p gen.Params, k int) {
		net, cfgs, dsts := wanInputs(t, p)
		rows = append(rows, row{name, net, cfgs, dsts, Options{K: k, PruneOverK: true}})
	}
	wan("gen.Small K=1", gen.Small(), 1)
	wan("gen.Small K=2", gen.Small(), 2)
	if !testing.Short() && !raceEnabled {
		wan("gen.Medium K=1", gen.Medium(), 1)
		wan("gen.Medium K=3", gen.Medium(), 3)
		wan("gen.Medium K=2", gen.Medium(), 2)
	}
	// Without the >K prune only impossible guards are dead: the rule the
	// §5.6 ablations drive through the IGP.
	smallNet, smallCfgs, smallDsts := wanInputs(t, gen.Small())
	rows = append(rows, row{"gen.Small K=1, no >K prune", smallNet, smallCfgs, smallDsts, Options{K: 1}})
	in := baseKeyInputs()
	net, cfgs := in.build(t)
	rows = append(rows, row{"two regions, L1/L2, penetrate", net, cfgs, []topo.NodeID{0, 1, 2, 3}, in.opts})
	for seed := int64(11); seed <= 14; seed++ {
		wan(fmt.Sprintf("gen seed %d", seed), seededParams(seed), 1+int(seed%3))
	}
	for _, r := range rows {
		if hasParallelLinks(r.net) {
			t.Fatalf("%s: parallel links, where the reference's order is not defined", r.name)
		}
		got, err := Build(r.net, r.cfgs, r.opts, r.dsts, nil, 2)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		gotRIBs, _, _ := ribsBy(t, ribOf, r.net, r.cfgs, r.opts, r.dsts)
		wantRIBs, want, _ := ribsBy(t, referencePropagate, r.net, r.cfgs, r.opts, r.dsts)
		if !bytes.Equal(gotRIBs, wantRIBs) {
			t.Fatalf("%s: RIB bytes differ from the reference fixpoint's", r.name)
		}
		if !bytes.Equal(memoBytes(t, got), memoBytes(t, want)) {
			t.Fatalf("%s: memo bytes differ from the reference fixpoint's", r.name)
		}
	}
}

// doubled returns a copy of net with link l doubled: one more link with
// the same endpoints and weight, added last.
func doubled(net *topo.Network, l topo.LinkID) *topo.Network {
	out := topo.NewNetwork()
	for _, n := range net.Nodes() {
		out.MustAddNode(*n)
	}
	for _, k := range net.Links() {
		out.MustAddLink(k.A, k.B, k.Weight)
	}
	k := net.Link(l)
	out.MustAddLink(k.A, k.B, k.Weight)
	return out
}

// TestParallelLinkNeverLowersTolerance is a metamorphic property: a
// parallel link adds a way around a failure and takes none away, so with
// any link of gen.Small doubled no IS-IS reachability condition between
// two routers may need fewer failures to break than before (min failures
// clipped to K+1, past the budget). It exercises the fixpoint's
// parallel-link path. It does not hold everywhere: the alternative cap
// can drop what the extra link adds (ROADMAP.md, item 2, and
// EXPERIMENTS.md, "IGP fixpoint").
func TestParallelLinkNeverLowersTolerance(t *testing.T) {
	base, cfgs, dsts := wanInputs(t, gen.Small())
	for _, k := range []int{1, 2} {
		opts := Options{K: k, PruneOverK: true}
		tolerance := func(net *topo.Network) map[[2]topo.NodeID]int {
			f := logic.NewFactoryOrdered(net.VarOrder())
			e := New(net, cfgs, f, opts)
			out := map[[2]topo.NodeID]int{}
			for _, b := range dsts {
				conds := reachToward(e, b)
				for _, a := range dsts {
					if a != b {
						out[[2]topo.NodeID{a, b}] = min(f.MinFailuresToViolate(conds[a]), k+1)
					}
				}
			}
			return out
		}
		want := tolerance(base)
		for l := range topo.LinkID(base.NumLinks()) {
			got := tolerance(doubled(base, l))
			for _, pair := range slices.SortedFunc(maps.Keys(want), cmpPair) {
				if got[pair] < want[pair] {
					t.Fatalf("K=%d, link %d doubled: %s → %s breaks with %d failures, %d before", k, l,
						base.Node(pair[0]).Name, base.Node(pair[1]).Name, got[pair], want[pair])
				}
			}
		}
	}
}

func cmpPair(x, y [2]topo.NodeID) int {
	if x[0] != y[0] {
		return int(x[0]) - int(y[0])
	}
	return int(x[1]) - int(y[1])
}

// BenchmarkBuildMemo is the fixpoint's local loop: one cold memo of every
// destination of gen.Medium (the memo-k1 workload's topology) on one
// goroutine, at K=1, where guards die a few entries down a ranked list,
// and at K=3, where most of the list stays live.
func BenchmarkBuildMemo(b *testing.B) {
	w, err := gen.Generate(gen.Medium())
	if err != nil {
		b.Fatal(err)
	}
	cfgs := make([]*config.Device, w.Net.NumNodes())
	var dsts []topo.NodeID
	for _, node := range w.Net.Nodes() {
		cfgs[node.ID] = w.Snap[node.Name]
		dsts = append(dsts, node.ID)
	}
	for _, k := range []int{1, 3} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			opts := Options{K: k, PruneOverK: true}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Build(w.Net, cfgs, opts, dsts, nil, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
