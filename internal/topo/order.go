package topo

import (
	"cmp"
	"slices"
	"strings"

	"hoyan/internal/logic"
)

// VarOrder returns the order in which a solver should branch on the
// aliveness variables of this network's links; every factory that holds
// conditions over the network is made with it (core.NewSimulator,
// igp.Build). It is computed on first use and again after AddLink.
//
// The order is a function of the topology's structure and names, never
// of link ids or of the order AddLink was called in, so the same WAN
// costs the same to verify however its topology file lists it. Links are
// sorted by ⟨region group, owner's link count, owner, other endpoint⟩:
//
//   - a link inside region R is in R's group, and a link between two
//     regions sits right after the own links of the smaller-named one, so
//     a region's links are contiguous and the conditions of routes that
//     stay inside it never branch on anything else in between;
//   - the owner of a link is its endpoint with fewer links (ties to the
//     smaller name), so the uplinks of a dual-homed PE or gateway — which
//     a condition mentions together or not at all — are adjacent;
//   - inside a group, owners with fewer links come first: the edge of the
//     region (gateways, MANs, PEs) on top and its core links last, next
//     to the links that leave it.
//
// Parallel links tie on all of that; they fall back to weight and then
// to link id, which only swaps variables no name or metric tells apart.
// EXPERIMENTS.md, "Variable order", has the candidates this was picked
// from.
func (n *Network) VarOrder() *logic.Order {
	if o := n.order.Load(); o != nil {
		return o
	}
	type sortKey struct {
		region       string
		between      int // 0 inside the region, 1 leaving it
		ownerLinks   int
		owner, other string
		weight       uint32
	}
	keys := make([]sortKey, len(n.links)) // by link id
	ids := make([]LinkID, len(n.links))
	for i, l := range n.links {
		own, oth := n.nodes[l.A], n.nodes[l.B]
		if a, b := len(n.adj[own.ID]), len(n.adj[oth.ID]); b < a || b == a && oth.Name < own.Name {
			own, oth = oth, own
		}
		k := sortKey{region: min(own.Region, oth.Region), ownerLinks: len(n.adj[own.ID]),
			owner: own.Name, other: oth.Name, weight: l.Weight}
		if own.Region != oth.Region {
			k.between = 1
		}
		keys[l.ID], ids[i] = k, l.ID
	}
	slices.SortStableFunc(ids, func(x, y LinkID) int {
		a, b := &keys[x], &keys[y]
		return cmp.Or(strings.Compare(a.region, b.region), cmp.Compare(a.between, b.between),
			cmp.Compare(a.ownerLinks, b.ownerLinks),
			strings.Compare(a.owner, b.owner), strings.Compare(a.other, b.other),
			cmp.Compare(a.weight, b.weight))
	})
	vars := make([]logic.Var, len(ids))
	for level, id := range ids {
		vars[level] = n.AliveVar(id)
	}
	o := logic.NewOrder(vars)
	n.order.Store(o)
	return o
}
