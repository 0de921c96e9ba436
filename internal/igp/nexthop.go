package igp

import (
	"encoding/binary"
	"slices"

	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// Hop is one first hop of a node toward an IS-IS destination: the
// adjacent node Next, taken on exactly the worlds where Cond holds.
type Hop struct {
	Next topo.NodeID
	Cond logic.F
}

// NextHops returns u's first hops toward dst: on every world of at most K
// failed links, the one hop whose condition holds is the first hop of u's
// best IS-IS path there — the path the K=0 fixpoint on the topology
// without the world's links selects. u has none where it has no path on
// any such world, and none toward itself. On a world of more than K
// failed links the conditions promise nothing, with or without
// PruneOverK. The answer is memoized per (destination, node) until
// Recycle, and a node's row is built only when asked for: the data plane
// reads a few nodes' rows of each next hop.
//
// It is built by bounded SPF branching, not by the fixpoint. Starting
// from no failed links F, one SPF from dst over the adjacencies minus F,
// ranked as the fixpoint ranks (spf), gives u its path. The leaf
// cons(F) ∧ alive(l₁..lₙ) takes the path's first hop, where l₁..lₙ are
// u's support links (spfTree.support): its path's, first hop first. While
// |F| < K, the rest of the worlds split on the first support link that
// failed: F ∪ {lᵢ} under cons ∧ alive(l₁..lᵢ₋₁) ∧ ¬alive(lᵢ). The leaves
// are disjoint, and a hop's condition is the OR of its leaves in the
// order the branching reaches them. It is exact because a failure off the
// support never lets another path beat u's: removing links never shortens
// a path, and the ranking extends a better path to a better one — except
// through a level-blocked router, whose path the support therefore holds
// too (spfTree.blocked; DESIGN.md, "Data plane").
func (e *Engine) NextHops(dst, u topo.NodeID) []Hop {
	key := [2]topo.NodeID{dst, u}
	if hops, ok := e.hops[key]; ok {
		return hops
	}
	var hops []Hop
	if u != dst && e.cfg[dst].enabled {
		b := e.spfs[dst]
		if b == nil {
			b = newBrancher(e, dst)
			e.spfs[dst] = b
		}
		b.branch(u, b.failed[:0], logic.True, &hops)
	}
	e.hops[key] = hops
	return hops
}

// spfTree is one SPF's answer: every node's best path toward the
// destination, as the first hop and the link to it.
type spfTree struct {
	next []topo.NodeID // NoNode where the node has no path
	link []topo.LinkID
	// blocked holds the links of every level-blocked node's path, in node
	// order: a node whose label's level may not cross an adjacency that
	// the other level may (a non-penetrating L1/L2 router holding an L1
	// route beside an L2 adjacency). A failure on such a path can hand
	// the node a worse route of the other level, which crosses where the
	// better one did not and can beat a neighbour's path: the one way a
	// removed link makes another path win. So these links are every
	// node's support too; the gen shapes, L2 throughout, have none.
	blocked []topo.LinkID
}

// brancher holds one destination's SPFs, memoized per failed-link set
// across the nodes whose branching reaches the same set, and the SPF's
// scratch.
type brancher struct {
	e        *Engine
	dst      topo.NodeID
	dstLevel Level // the level of the destination's own label
	arcs     [][]arc
	trees    map[string]*spfTree
	// sorted and key are spf's scratch for the memo key of a failed-link
	// set (failedKey).
	sorted []topo.LinkID
	key    []byte
	// links and splits are branch's stacks: each branch appends its
	// support links and its split conditions on entry and truncates them
	// on return, so a deeper branch writes only past what its caller
	// still reads. failed has room for K links, the deepest set branch
	// passes down, so extending it by one copies nothing.
	links  []topo.LinkID
	splits []logic.F
	failed []topo.LinkID
	// mayBlock is whether any node can be level-blocked in an SPF toward
	// dst: whether some arc refuses a level that a label can hold — the
	// destination's own, or one an arc hands on — while it lets the other
	// level cross. Where none does, levelBlocked is false at every node
	// of every SPF, and spf skips its scan. The gen shapes, L2
	// throughout, are such nets: every arc there crosses {0, L2}.
	mayBlock bool

	weight []uint32
	hops   []int32
	level  []Level // 0 where the SPF has not reached the node
	done   []bool
	heap   []spfItem
}

// newBrancher returns dst's brancher, before any SPF.
func newBrancher(e *Engine, dst topo.NodeID) *brancher {
	b := &brancher{e: e, dst: dst, dstLevel: L2, arcs: e.fixpointState().arcs, trees: map[string]*spfTree{},
		failed: make([]topo.LinkID, 0, e.opts.K)}
	if e.cfg[dst].level == 1 {
		b.dstLevel = L1
	}
	var held [L2 + 1]bool
	held[b.dstLevel] = true
	for _, as := range b.arcs {
		for _, a := range as {
			held[a.cross[L1-1]], held[a.cross[L2-1]] = true, true
		}
	}
	for _, as := range b.arcs {
		for _, a := range as {
			for _, lvl := range [2]Level{L1, L2} {
				if held[lvl] && a.cross[lvl-1] == 0 && a.cross[L1+L2-lvl-1] != 0 {
					b.mayBlock = true
					return b
				}
			}
		}
	}
	return b
}

type spfItem struct {
	weight uint32
	hops   int32
	node   topo.NodeID
}

func (a spfItem) less(b spfItem) bool {
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.node < b.node
}

// branch adds to *out the leaves of u's worlds that fail exactly the
// links in failed among those the branching has decided, under cons.
func (b *brancher) branch(u topo.NodeID, failed []topo.LinkID, cons logic.F, out *[]Hop) {
	t := b.spf(failed)
	f := b.e.f
	linksAt, splitsAt := len(b.links), len(b.splits)
	b.links = t.support(b.links, u)
	links := b.links[linksAt:]
	deeper := len(failed) < b.e.opts.K
	acc := cons
	for _, l := range links {
		alive := f.Var(b.e.net.AliveVar(l))
		if deeper {
			b.splits = append(b.splits, f.And(acc, f.Not(alive)))
		}
		acc = f.And(acc, alive)
	}
	if hop := t.next[u]; hop != topo.NoNode {
		if i := slices.IndexFunc(*out, func(h Hop) bool { return h.Next == hop }); i >= 0 {
			(*out)[i].Cond = f.Or((*out)[i].Cond, acc)
		} else {
			*out = append(*out, Hop{Next: hop, Cond: acc})
		}
	}
	for i, cond := range b.splits[splitsAt:] {
		b.branch(u, append(failed, links[i]), cond, out)
	}
	b.links, b.splits = b.links[:linksAt], b.splits[:splitsAt]
}

// support appends u's support links to links and returns the result: its
// path's, from u toward the destination, then the blocked links off that
// path.
func (t *spfTree) support(links []topo.LinkID, u topo.NodeID) []topo.LinkID {
	from := len(links)
	for v := u; t.next[v] != topo.NoNode; v = t.next[v] {
		links = append(links, t.link[v])
	}
	onPath := len(links)
	for _, l := range t.blocked {
		if !slices.Contains(links[from:onPath], l) {
			links = append(links, l)
		}
	}
	return links
}

// spf returns the SPF from the destination over the adjacencies whose
// link is not in failed. It ranks as the fixpoint does (cmpEntry):
// lower weight, then fewer hops, then the path read node by node from
// the destination, and a tie over parallel links goes to the lower link
// id, the slot assemble's merge prefers. A label crosses an adjacency at
// its own level (arc.cross) and not past the largest path weight, as in
// offersOver.
func (b *brancher) spf(failed []topo.LinkID) *spfTree {
	b.failedKey(failed)
	if t, ok := b.trees[string(b.key)]; ok {
		return t
	}
	n := len(b.arcs)
	t := &spfTree{next: make([]topo.NodeID, n), link: make([]topo.LinkID, n)}
	for v := range t.next {
		t.next[v], t.link[v] = topo.NoNode, topo.NoLink
	}
	if b.level == nil {
		b.weight, b.hops, b.level, b.done = make([]uint32, n), make([]int32, n), make([]Level, n), make([]bool, n)
	}
	clear(b.level)
	clear(b.done)
	done := b.done
	b.level[b.dst] = b.dstLevel
	b.weight[b.dst], b.hops[b.dst] = 0, 0
	b.heap = append(b.heap[:0], spfItem{node: b.dst})
	for len(b.heap) > 0 {
		u := b.pop().node
		if done[u] {
			continue
		}
		done[u] = true
		for _, a := range b.arcs[u] {
			lvl, w := a.cross[b.level[u]-1], b.weight[u]+a.weight
			if done[a.to] || lvl == 0 || w < b.weight[u] || slices.Contains(failed, a.link) {
				continue
			}
			if b.level[a.to] != 0 && !b.better(t, w, b.hops[u]+1, u, a.link, a.to) {
				continue
			}
			b.weight[a.to], b.hops[a.to], b.level[a.to] = w, b.hops[u]+1, lvl
			t.next[a.to], t.link[a.to] = u, a.link
			b.push(spfItem{weight: w, hops: b.hops[a.to], node: a.to})
		}
	}
	if b.mayBlock {
		for x := range t.next {
			if b.level[x] != 0 && b.levelBlocked(topo.NodeID(x), failed) {
				for v := topo.NodeID(x); t.next[v] != topo.NoNode; v = t.next[v] {
					if !slices.Contains(t.blocked, t.link[v]) {
						t.blocked = append(t.blocked, t.link[v])
					}
				}
			}
		}
	}
	b.trees[string(b.key)] = t
	return t
}

// better reports whether the path to v through u over link, of weight w
// and hops hops, ranks above v's current one.
func (b *brancher) better(t *spfTree, w uint32, hops int32, u topo.NodeID, link topo.LinkID, v topo.NodeID) bool {
	if w != b.weight[v] {
		return w < b.weight[v]
	}
	if hops != b.hops[v] {
		return hops < b.hops[v]
	}
	x, y := u, t.next[v]
	if x == y {
		return link < t.link[v]
	}
	// Equal hop counts: walk both paths toward the destination to where
	// they meet; the nodes just before it are the first that differ.
	for t.next[x] != t.next[y] {
		x, y = t.next[x], t.next[y]
	}
	return x < y
}

// levelBlocked reports whether x's label may not cross a surviving
// adjacency that a label of the other level may (spfTree.blocked).
func (b *brancher) levelBlocked(x topo.NodeID, failed []topo.LinkID) bool {
	lvl := b.level[x]
	for _, a := range b.arcs[x] {
		if a.cross[lvl-1] == 0 && a.cross[L1+L2-lvl-1] != 0 && !slices.Contains(failed, a.link) {
			return true
		}
	}
	return false
}

func (b *brancher) push(it spfItem) {
	b.heap = append(b.heap, it)
	for i := len(b.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !b.heap[i].less(b.heap[p]) {
			break
		}
		b.heap[i], b.heap[p] = b.heap[p], b.heap[i]
		i = p
	}
}

func (b *brancher) pop() spfItem {
	h := b.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	b.heap = h
	return top
}

// failedKey sets b.key to the memo key of a failed-link set: its ids,
// sorted. It reuses b's scratch, so a memo hit allocates nothing: a map
// lookup by string(b.key) copies no bytes, and only the insert of a new
// tree allocates the key string.
func (b *brancher) failedKey(failed []topo.LinkID) {
	b.sorted = append(b.sorted[:0], failed...)
	slices.Sort(b.sorted)
	b.key = b.key[:0]
	for _, l := range b.sorted {
		b.key = binary.LittleEndian.AppendUint32(b.key, uint32(l))
	}
}
