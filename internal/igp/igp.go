// Package igp computes IS-IS reachability with topology conditions by the
// reduction of Appendix C: IS-IS becomes a path-vector protocol whose
// "AS numbers" are node IDs and whose route selection is weighted shortest
// path. Every IGP route carries a topology condition over link-aliveness
// variables, so iBGP session conditions — the conjunction of the two
// directions' IS-IS reachability — inherit failure awareness for free.
// The path-vector fixpoint builds those conditions for the memo (Build);
// the data plane's next hops come from bounded SPF branching instead
// (Engine.NextHops), which runs no fixpoint.
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
// from the list can under-approximate reachability (ROADMAP.md, item 1a).
// The data plane's next hops do not read the list (NextHops).
const maxAlternatives = 8

// nodeISIS captures the parts of a device config the IGP needs.
type nodeISIS struct {
	enabled   bool
	level     int // 1, 2 or 12
	penetrate bool
	metrics   map[string]uint32
}

// Engine answers IS-IS questions in one logic.Factory: a memo goroutine's
// fixpoints (Build) and a simulator's next hops (NextHops), which it
// memoizes per (destination, node). It is not safe for concurrent use
// (create one per prefix simulation, like the factory itself). Core reads
// no session condition from an Engine — those come from a Memo — only
// the next hops dataplane.Build resolves iBGP next hops through.
type Engine struct {
	net  *topo.Network
	f    *logic.Factory
	opts Options
	cfg  []nodeISIS
	hops map[[2]topo.NodeID][]Hop  // per (destination, node), NextHops' answer
	spfs map[topo.NodeID]*brancher // per destination, the SPFs NextHops ran

	// fp is the fixpoint's working state, built by the first propagate and
	// reused by every later one (a memo goroutine runs all its destinations
	// through one engine). An engine that propagates nothing never builds
	// it.
	fp *fixpoint
}

// New builds an engine. configs maps node ID to the device configuration
// (nil entries mean IS-IS disabled on that node).
func New(net *topo.Network, configs []*config.Device, f *logic.Factory, opts Options) *Engine {
	return newEngine(net, isisConfigs(net, configs), f, opts)
}

func newEngine(net *topo.Network, cfg []nodeISIS, f *logic.Factory, opts Options) *Engine {
	return &Engine{net: net, f: f, opts: opts, cfg: cfg, hops: map[[2]topo.NodeID][]Hop{}, spfs: map[topo.NodeID]*brancher{}}
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

// Recycle drops every memoized next hop, whose conditions a Recycle of the
// engine's factory voids, and the SPFs they were branched from. The next
// lookup branches again.
func (e *Engine) Recycle() {
	clear(e.hops)
	clear(e.spfs)
}

// propagations counts the destinations Build computed process-wide.
var propagations atomic.Int64

// Propagations reports how many memo destinations Build has computed in
// this process. Tests use it to pin what a memo saves: a sweep whose
// model reads the same IGP inputs as its baseline's computes none.
func Propagations() int64 { return propagations.Load() }

// maxStepsFactor scales the fixpoint's step cap; a variable so a test can
// lower it to where a real topology hits the cap.
var maxStepsFactor = 4

// cmpEntry orders IS-IS alternatives: lower weight, then shorter path,
// then lexicographic path. Two alternatives tie only when parallel links
// lie somewhere on their path; assemble sorts stably over a concatenation
// in a fixed order, so ties keep that order (DESIGN.md, "Sweep engine").
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

// arc is one IS-IS adjacency seen from its upstream end u: u's routes
// cross link to the peer `to` and land in one of to's slots.
type arc struct {
	to     topo.NodeID
	link   topo.LinkID
	slot   int      // to's slot for (u, link): an index into fixpoint.slots
	weight uint32   // to's metric toward u, what a route pays to cross
	cross  [2]Level // the level an L1 / L2 route at u becomes at to; 0 when it may not cross
}

// offer is a candidate alternative at a neighbour: the upstream's ranked
// entry `from` extended by one hop, valid under cond.
type offer struct {
	from   int
	cond   logic.F
	weight uint32
	level  Level
}

// fixpoint is propagate's working state. arcs and base depend on the
// network and the IS-IS configs alone and are computed once; the rest is
// reset for every destination and keeps its buffers.
type fixpoint struct {
	arcs [][]arc // per node, its IS-IS adjacencies in Neighbors order
	// base[n] is n's first slot: n owns slots base[n] to base[n+1]-1, one
	// per adjacency in arcs[n] order (adjacency is symmetric, so n's
	// incoming adjacencies are its outgoing ones reversed).
	base []int

	slots   [][]Entry     // per incoming adjacency, the alternatives its upstream offers
	sent    [][]Entry     // per node, the ranked list it last propagated
	didSend []bool        // per node, whether it has propagated at all
	queued  []bool        // per node, whether it is in the queue
	queue   []topo.NodeID // FIFO ring of NumNodes slots: no node is queued twice
	ranked  []Entry       // assemble's output buffer
	heads   []int         // assemble's read position in each slot of one node
	guards  []logic.F     // per ranked entry, the notHigher guard before it
	dead    int           // the first entry whose guard is known dead; len(guards) when none is
	offers  []offer       // one neighbour's candidates, before any path is built
}

// fixpointState returns the engine's fixpoint state, computing the
// adjacency arcs on first use.
func (e *Engine) fixpointState() *fixpoint {
	if e.fp != nil {
		return e.fp
	}
	n := e.net.NumNodes()
	fp := &fixpoint{arcs: make([][]arc, n), base: make([]int, n+1)}
	// pos[l] is l's position in the arc lists of its A and B endpoints.
	pos := make([][2]int, e.net.NumLinks())
	flat := make([]arc, 0, 2*e.net.NumLinks())
	for u := range n {
		uid := topo.NodeID(u)
		start := len(flat)
		for _, ad := range e.net.Neighbors(uid) {
			if !e.adjacent(uid, ad.Peer) {
				continue
			}
			pos[ad.Link][endOf(e.net, ad.Link, uid)] = len(flat) - start
			a := arc{to: ad.Peer, link: ad.Link, weight: e.linkWeight(ad.Peer, uid, ad.Link)}
			a.cross[L1-1], _ = e.crossLevel(L1, uid, ad.Peer)
			a.cross[L2-1], _ = e.crossLevel(L2, uid, ad.Peer)
			flat = append(flat, a)
		}
		fp.arcs[u] = flat[start:len(flat):len(flat)]
		fp.base[u+1] = len(flat)
	}
	for i := range flat {
		a := &flat[i]
		a.slot = fp.base[a.to] + pos[a.link][endOf(e.net, a.link, a.to)]
	}
	fp.slots = make([][]Entry, len(flat))
	fp.sent = make([][]Entry, n)
	fp.didSend = make([]bool, n)
	fp.queued = make([]bool, n)
	fp.queue = make([]topo.NodeID, n)
	deg := 0
	for _, as := range fp.arcs {
		deg = max(deg, len(as))
	}
	fp.heads = make([]int, deg)
	e.fp = fp
	return fp
}

// endOf is 0 when n is l's A endpoint and 1 when it is its B endpoint.
func endOf(net *topo.Network, l topo.LinkID, n topo.NodeID) int {
	if net.Link(l).A == n {
		return 0
	}
	return 1
}

// propagate runs the path-vector fixpoint for one destination. Every node
// keeps, per incoming adjacency, the alternatives that neighbour offers;
// the node's own alternatives are those merged and ranked, and each is
// offered onward guarded by the negation of every better one
// (RouteISISReachability of Algorithm 2). It returns false when the step
// cap ended the loop with updates still queued. Either way the ranked
// alternatives stay in the engine's fixpoint state, where export and
// reach read them, until the next propagate.
//
// Only work that can change the answer is done. A node's slots are merged,
// not sorted. The guard chain is built once per dequeue, a candidate under
// a dead guard gets no formula and a live one is conjoined guard first, a
// neighbour's candidates are compared with its slot before any path is
// copied, and a node whose ranked list is unchanged since it last
// propagated does not propagate again. What order the formulas are made
// in decides no exported byte: Export's bytes follow the formulas alone.
func (e *Engine) propagate(dst topo.NodeID) (complete bool) {
	fp := e.fixpointState()
	for i := range fp.slots {
		fp.slots[i] = fp.slots[i][:0]
	}
	for v := range fp.sent {
		fp.sent[v] = fp.sent[v][:0]
	}
	clear(fp.didSend)
	clear(fp.queued)
	if !e.cfg[dst].enabled {
		return true
	}
	level := L2
	if e.cfg[dst].level == 1 {
		level = L1
	}
	self := Entry{Weight: 0, Path: []topo.NodeID{dst}, Cond: logic.True, Level: level}

	n := len(fp.queue)
	head, queued := 0, 1
	fp.queue[0], fp.queued[dst] = dst, true
	steps := 0
	maxSteps := maxStepsFactor * n * n * (maxAlternatives + 1)
	for queued > 0 && steps < maxSteps {
		steps++
		u := fp.queue[head]
		head, queued = (head+1)%n, queued-1
		fp.queued[u] = false
		entries := fp.assemble(u, dst, self)
		// Unchanged since u last propagated: every formula below would be a
		// hash-cons hit and every offer equal to the slot it would replace,
		// since only u writes the slots of its own adjacencies.
		if fp.didSend[u] && sameRanked(fp.sent[u], entries) {
			continue
		}
		fp.sent[u] = append(fp.sent[u][:0], entries...)
		fp.didSend[u] = true
		// guards[i] is notHigher before entry i, the same on every arc.
		fp.guards, fp.dead = fp.guards[:0], len(entries)
		for i := range entries {
			g := logic.True
			if i > 0 {
				g = e.f.And(fp.guards[i-1], e.f.Not(entries[i-1].Cond))
			}
			fp.guards = append(fp.guards, g)
		}
		for _, a := range fp.arcs[u] {
			offers := e.offersOver(fp, entries, a)
			slot := &fp.slots[a.slot]
			if e.sameOffers(*slot, entries, offers, a.to) {
				continue
			}
			*slot = fill(*slot, entries, offers, a.to)
			if !fp.queued[a.to] {
				fp.queued[a.to] = true
				fp.queue[(head+queued)%n] = a.to
				queued++
			}
		}
	}

	return queued == 0
}

// assemble merges n's slots (and, at the destination, the route to
// itself) into n's ranked alternatives, the best maxAlternatives kept;
// the result lives in fp.ranked until the next call. Every slot is
// already ranked — it is its upstream's ranked list, filtered, with one
// weight and one last hop added to each entry, which keeps cmpEntry's
// order — so a k-way merge that stops at maxAlternatives ranks them. The
// route to itself comes first (weight 0, the shortest path), and a tie
// goes to the lower slot, that is to the lower incoming link id, then to
// the upstream's own rank: the order a stable sort of the slots
// concatenated in slot order gives, on every run.
func (fp *fixpoint) assemble(n, dst topo.NodeID, self Entry) []Entry {
	all := fp.ranked[:0]
	if n == dst {
		all = append(all, self)
	}
	slots := fp.slots[fp.base[n]:fp.base[n+1]]
	heads := fp.heads[:len(slots)]
	clear(heads)
	for len(all) < maxAlternatives {
		best := -1
		for s, es := range slots {
			if heads[s] < len(es) && (best < 0 || cmpEntry(es[heads[s]], slots[best][heads[best]]) < 0) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		all = append(all, slots[best][heads[best]])
		heads[best]++
	}
	fp.ranked = all
	return all
}

// offersOver builds what u, holding the ranked entries, offers over arc a:
// each entry that may cross, guarded by the negation of every entry
// ranked above it (fp.guards, built once per dequeue) and by a's link.
//
// The solver runs only where a candidate can survive. Once a guard is
// dead — it needs more than K failures (Impossible without PruneOverK) —
// so is every later one, since a conjunction needs at least the failures
// of each conjunct, and so is every candidate under it: from the first
// dead guard on, on every arc, no candidate is built. A live candidate's
// BDD is built guard first (logic.Factory.AndAllGuarded), so the product
// of a guard and its entry is paid once per dequeue, not once per arc.
func (e *Engine) offersOver(fp *fixpoint, entries []Entry, a arc) []offer {
	f := e.f
	out := fp.offers[:0]
	for i, ent := range entries {
		lvl := a.cross[ent.Level-1]
		weight := ent.Weight + a.weight
		// An entry crosses unless its level may not, a.to is already on
		// its path (loop prevention), or the path would weigh more than a
		// weight holds: IS-IS uses no path past its largest path metric,
		// and a wrapped weight would rank the way round first and leave
		// the slot out of the order assemble's merge relies on.
		if lvl == 0 || containsNode(ent.Path, a.to) || weight < ent.Weight {
			continue
		}
		if i < fp.dead && e.deadGuard(fp.guards[i]) {
			fp.dead = i
		}
		if i >= fp.dead {
			break
		}
		cond := f.AndAllGuarded(fp.guards[i], ent.Cond, f.Var(e.net.AliveVar(a.link)))
		if f.Impossible(cond) || e.opts.PruneOverK && f.MinFalse(cond) > e.opts.K {
			continue
		}
		out = append(out, offer{from: i, cond: cond, weight: weight, level: lvl})
	}
	fp.offers = out
	return out
}

// deadGuard reports whether no candidate under guard g can survive the
// prune: g needs more than K failures, or without PruneOverK, g is
// impossible.
func (e *Engine) deadGuard(g logic.F) bool {
	if e.opts.PruneOverK {
		return e.f.MinFalse(g) > e.opts.K
	}
	return e.f.Impossible(g)
}

// sameOffers reports whether slot already holds the offers made at v:
// the same weights, levels and paths (upstream path plus v) and
// equivalent conditions. An equal slot keeps its entries, conditions
// included.
func (e *Engine) sameOffers(slot, entries []Entry, offers []offer, v topo.NodeID) bool {
	if len(slot) != len(offers) {
		return false
	}
	for i, o := range offers {
		s := slot[i]
		if s.Weight != o.weight || s.Level != o.level || !extends(s.Path, entries[o.from].Path, v) {
			return false
		}
		if s.Cond != o.cond && !e.f.Equivalent(s.Cond, o.cond) {
			return false
		}
	}
	return true
}

// fill overwrites slot with the offers made at v, in place where it has
// room. An entry keeps the path already at its index when that is the
// path it needs; only a differing path is allocated.
func fill(slot, entries []Entry, offers []offer, v topo.NodeID) []Entry {
	prev := slot
	if cap(slot) < len(offers) {
		slot = make([]Entry, len(offers))
	} else {
		slot = slot[:len(offers)]
	}
	for i, o := range offers {
		up := entries[o.from].Path
		var path []topo.NodeID
		if i < len(prev) && extends(prev[i].Path, up, v) {
			path = prev[i].Path // read before slot[i], which may share its array, is written
		} else {
			path = make([]topo.NodeID, len(up)+1)
			copy(path, up)
			path[len(up)] = v
		}
		slot[i] = Entry{Weight: o.weight, Path: path, Cond: o.cond, Level: o.level}
	}
	return slot
}

// extends reports whether path is up followed by v.
func extends(path, up []topo.NodeID, v topo.NodeID) bool {
	return len(path) == len(up)+1 && path[len(up)] == v && slices.Equal(path[:len(up)], up)
}

// sameRanked reports whether two ranked lists are identical: the same
// formulas (not merely equivalent ones), weights, levels and paths.
func sameRanked(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cond != b[i].Cond || a[i].Weight != b[i].Weight || a[i].Level != b[i].Level ||
			!slices.Equal(a[i].Path, b[i].Path) {
			return false
		}
	}
	return true
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

// reach is the one definition of the reachability condition core reads:
// from's condition toward `to`, the destination propagate last ran —
// True at `to` itself, else the disjunction of from's ranked
// alternatives, False when it has none. The memo (export) builds it here.
func (e *Engine) reach(from, to topo.NodeID) logic.F {
	if from == to {
		return logic.True
	}
	cond := logic.False
	for _, ent := range e.fp.assemble(from, to, Entry{}) { // self is read only at `to`
		cond = e.f.Or(cond, ent.Cond)
	}
	return cond
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
