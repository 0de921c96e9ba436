// Package igp computes IS-IS reachability with topology conditions by the
// reduction of Appendix C: IS-IS becomes a path-vector protocol whose
// "AS numbers" are node IDs and whose route selection is weighted shortest
// path. Every IGP route carries a topology condition over link-aliveness
// variables, so iBGP session conditions — the conjunction of the two
// directions' IS-IS reachability — inherit failure awareness for free.
//
// L1/L2 is modeled as the paper describes: an L1 route crosses into L2 at
// an L1/L2 router with penetration enabled (the community-mimicking trick
// of Appendix C reduced to its observable effect).
package igp

import (
	"slices"
	"sync/atomic"

	"hoyan/internal/config"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// Level classifies an IS-IS route's current level during propagation.
type Level uint8

// Levels.
const (
	L1 Level = 1
	L2 Level = 2
)

// Entry is one IS-IS route alternative at a node: reach dst over path with
// additive weight, valid under Cond.
type Entry struct {
	Weight uint32
	Path   []topo.NodeID // dst first, this node last
	Cond   logic.F
	Level  Level
}

// Options tunes the propagation.
type Options struct {
	// K bounds the failure cases of interest: alternatives whose
	// condition needs more than K failures are pruned (0 disables the
	// prune only if PruneOverK is false).
	K int
	// PruneOverK enables the >K prune.
	PruneOverK bool
}

// DefaultOptions matches the paper's operating point (k up to 3).
func DefaultOptions() Options {
	return Options{K: 3, PruneOverK: true}
}

// maxAlternatives caps each node's sorted alternative list (the best are
// kept). The cap is unsound: a dropped alternative can be the surviving
// path under some failure set within the budget, so a condition built
// from the list can under-approximate reachability (ROADMAP.md, item 2).
const maxAlternatives = 8

// nodeISIS captures the parts of a device config the IGP needs.
type nodeISIS struct {
	enabled   bool
	level     int // 1, 2 or 12
	penetrate bool
	metrics   map[string]uint32
}

// Engine computes per-destination IS-IS RIBs lazily and memoizes them.
// An Engine is bound to one logic.Factory and is not safe for concurrent
// use (create one per prefix simulation, like the factory itself).
type Engine struct {
	net  *topo.Network
	f    *logic.Factory
	opts Options
	cfg  []nodeISIS
	ribs map[topo.NodeID]map[topo.NodeID][]Entry // dst -> node -> entries

	// memo is the seeded cross-engine memo (see memo.go): a destination it
	// holds is imported into f on first use instead of propagated.
	memo *Memo
}

// New builds an engine. configs maps node ID to the device configuration
// (nil entries mean IS-IS disabled on that node).
func New(net *topo.Network, configs []*config.Device, f *logic.Factory, opts Options) *Engine {
	return newEngine(net, isisConfigs(net, configs), f, opts)
}

func newEngine(net *topo.Network, cfg []nodeISIS, f *logic.Factory, opts Options) *Engine {
	return &Engine{net: net, f: f, opts: opts, cfg: cfg, ribs: map[topo.NodeID]map[topo.NodeID][]Entry{}}
}

// isisConfigs extracts what the IGP reads of the device configs — and
// nothing else, which is what lets Key fingerprint it.
func isisConfigs(net *topo.Network, configs []*config.Device) []nodeISIS {
	cfg := make([]nodeISIS, net.NumNodes())
	for i, c := range configs {
		if c == nil || c.ISIS == nil || !c.ISIS.Enabled {
			continue
		}
		cfg[i] = nodeISIS{
			enabled:   true,
			level:     c.ISIS.Level,
			penetrate: c.ISIS.Penetrate,
			metrics:   c.ISIS.Metrics,
		}
	}
	return cfg
}

func (e *Engine) hasL1(n topo.NodeID) bool {
	return e.cfg[n].enabled && (e.cfg[n].level == 1 || e.cfg[n].level == 12)
}

func (e *Engine) hasL2(n topo.NodeID) bool {
	return e.cfg[n].enabled && (e.cfg[n].level == 2 || e.cfg[n].level == 12)
}

// linkWeight resolves the IS-IS metric from u toward v: the interface
// override in u's config wins over the topology default.
func (e *Engine) linkWeight(u, v topo.NodeID, l topo.LinkID) uint32 {
	if m, ok := e.cfg[u].metrics[e.net.Node(v).Name]; ok {
		return m
	}
	return e.net.Link(l).Weight
}

// RIB returns every node's IS-IS alternatives for destination dst,
// computing and memoizing on first use.
func (e *Engine) RIB(dst topo.NodeID) map[topo.NodeID][]Entry {
	if rib, ok := e.ribs[dst]; ok {
		return rib
	}
	rib, ok := e.fromMemo(dst)
	if !ok {
		// A fixpoint cut off at the step cap is served as far as it got:
		// RIB has no error to return. Only Build, whose result outlives the
		// engine, refuses one.
		rib, _ = e.propagate(dst)
	}
	e.ribs[dst] = rib
	return rib
}

// propagations counts path-vector fixpoints run process-wide.
var propagations atomic.Int64

// Propagations reports how many per-destination fixpoints have run in
// this process. Tests use it to pin what a memo saves: a sweep whose
// model reads the same IGP inputs as its baseline's runs none.
func Propagations() int64 { return propagations.Load() }

// maxStepsFactor scales the fixpoint's step cap; a variable so a test can
// lower it to where a real topology hits the cap.
var maxStepsFactor = 4

// better orders IS-IS alternatives: lower weight, then shorter path, then
// lexicographic path for determinism.
func better(a, b Entry) bool {
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return a.Path[i] < b.Path[i]
		}
	}
	return false
}

// cmpEntry is better as a three-way comparison for slices.SortFunc
// (which, unlike sort.Slice, sorts without reflection allocations).
func cmpEntry(a, b Entry) int {
	if a.Weight != b.Weight {
		if a.Weight < b.Weight {
			return -1
		}
		return 1
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) - len(b.Path)
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return int(a.Path[i]) - int(b.Path[i])
		}
	}
	return 0
}

// propagate runs the path-vector fixpoint for one destination. Every node
// keeps, per upstream neighbor, the set of alternatives that neighbor
// offers; the node's own alternatives are those sets merged, guarded
// exclusively by rank (RouteISISReachability of Algorithm 2). complete is
// false when the step cap ended the loop with updates still queued: the
// RIB is then whatever the cut-off fixpoint had reached.
func (e *Engine) propagate(dst topo.NodeID) (rib map[topo.NodeID][]Entry, complete bool) {
	propagations.Add(1)
	if !e.cfg[dst].enabled {
		return map[topo.NodeID][]Entry{}, true
	}
	level := L2
	if e.cfg[dst].level == 1 {
		level = L1
	}
	// Contributions are keyed by the incoming adjacency (upstream node and
	// link) so parallel links each carry their own alternatives.
	type adjKey struct {
		from topo.NodeID
		link topo.LinkID
	}
	contrib := map[topo.NodeID]map[adjKey][]Entry{} // node -> adjacency -> entries
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
			// Exclusive guards over u's ranked alternatives.
			notHigher := logic.True
			for _, ent := range entries {
				lvl, ok := e.crossLevel(ent.Level, u, v)
				if !ok {
					notHigher = e.f.And(notHigher, e.f.Not(ent.Cond))
					continue
				}
				if containsNode(ent.Path, v) {
					// Loop prevention: v already on the path.
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
			if !entriesEqual(e.f, contrib[v][key], out) {
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

// adjacent reports whether an IS-IS adjacency forms between u and v:
// both run IS-IS, and they share a level — L1 adjacency additionally
// requires the same region (area).
func (e *Engine) adjacent(u, v topo.NodeID) bool {
	if !e.cfg[u].enabled || !e.cfg[v].enabled {
		return false
	}
	if e.hasL2(u) && e.hasL2(v) {
		return true
	}
	if e.hasL1(u) && e.hasL1(v) && e.net.Node(u).Region == e.net.Node(v).Region {
		return true
	}
	return false
}

// crossLevel decides whether a route at level lvl may cross from u to v and
// what level it becomes: L1 routes become L2 at a penetrating L1/L2 router;
// L2 routes may enter an L1 area through an L1/L2 router (modeled always —
// default-route behavior folded in).
func (e *Engine) crossLevel(lvl Level, u, v topo.NodeID) (Level, bool) {
	uL1, uL2 := e.hasL1(u), e.hasL2(u)
	vL1, vL2 := e.hasL1(v), e.hasL2(v)
	sameRegion := e.net.Node(u).Region == e.net.Node(v).Region
	switch lvl {
	case L1:
		if uL1 && vL1 && sameRegion {
			return L1, true
		}
		// Penetration: L1 route leaves the area via an L1/L2 router.
		if uL1 && uL2 && e.cfg[u].penetrate && vL2 {
			return L2, true
		}
		return 0, false
	default: // L2
		if uL2 && vL2 {
			return L2, true
		}
		// L2 into L1 area through an L1/L2 router.
		if uL1 && uL2 && vL1 && sameRegion {
			return L1, true
		}
		return 0, false
	}
}

func containsNode(path []topo.NodeID, n topo.NodeID) bool {
	for _, p := range path {
		if p == n {
			return true
		}
	}
	return false
}

func entriesEqual(f *logic.Factory, a, b []Entry) bool {
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

// ReachCond returns the topology condition under which node `from` has any
// IS-IS route to `to` (True means unconditional, False means never).
func (e *Engine) ReachCond(from, to topo.NodeID) logic.F {
	if from == to {
		return logic.True
	}
	rib := e.RIB(to)
	cond := logic.False
	for _, ent := range rib[from] {
		cond = e.f.Or(cond, ent.Cond)
	}
	return cond
}

// SessionCond returns the condition under which an iBGP session between a
// and b is established: both directions of IS-IS reachability must hold
// (Appendix C: "the topology condition of an iBGP session is a combination
// of the topology conditions of the IS-IS routes the session uses").
func (e *Engine) SessionCond(a, b topo.NodeID) logic.F {
	return e.f.And(e.ReachCond(a, b), e.ReachCond(b, a))
}

// BestEntry returns the best alternative at node n for destination dst and
// whether one exists — the plain-IS-IS answer used by the SPF cross-check.
func (e *Engine) BestEntry(n, dst topo.NodeID) (Entry, bool) {
	rib := e.RIB(dst)
	if len(rib[n]) == 0 {
		return Entry{}, false
	}
	return rib[n][0], true
}

// SPFDistance computes the weighted shortest-path distance from src to dst
// over alive links by Dijkstra on the raw topology (respecting IS-IS
// adjacency and metric overrides but ignoring levels). It is the
// cross-check oracle: under full liveness the path-vector reduction must
// agree with SPF, the invariant the paper reports held for a year.
func (e *Engine) SPFDistance(src, dst topo.NodeID, failed map[topo.LinkID]bool) (uint32, bool) {
	const inf = ^uint32(0)
	dist := make([]uint32, e.net.NumNodes())
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	visited := make([]bool, e.net.NumNodes())
	for {
		u := topo.NoNode
		best := inf
		for i, d := range dist {
			if !visited[i] && d < best {
				best = d
				u = topo.NodeID(i)
			}
		}
		if u == topo.NoNode {
			break
		}
		visited[u] = true
		if u == dst {
			return dist[u], true
		}
		for _, ad := range e.net.Neighbors(u) {
			if failed[ad.Link] || !e.adjacent(u, ad.Peer) {
				continue
			}
			// Forward hop u→peer costs u's outgoing interface metric,
			// matching propagate's orientation (a node pays its own
			// interface metric toward the next hop).
			w := e.linkWeight(u, ad.Peer, ad.Link)
			if nd := dist[u] + w; nd < dist[ad.Peer] {
				dist[ad.Peer] = nd
			}
		}
	}
	return 0, false
}
