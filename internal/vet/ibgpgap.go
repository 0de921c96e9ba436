package vet

import (
	"hoyan/internal/topo"
)

// IBGPGapAnalyzer flags iBGP speakers a partial mesh leaves
// unreachable: for every AS with two or more speakers it computes, per
// origin speaker, the set of speakers the origin's routes can reach by
// static transitive closure over the configured sessions — one plain
// iBGP hop from the origin, then onward only where route reflection
// permits (client routes reflect to everyone, non-client routes to
// clients only, exactly the behavior model's rule). A speaker some
// origin cannot reach will silently miss routes at runtime, the
// propagation hole the paper's coverage story is about.
var IBGPGapAnalyzer = &Analyzer{
	Name: "ibgpgap",
	Code: "V003",
	Doc:  "flags iBGP speakers unreachable from some origin over the configured session mesh",
	Run:  runIBGPGap,
}

func runIBGPGap(p *Pass) error {
	ix := p.Sessions()
	for _, as := range ix.speakerAS {
		speakers := ix.speakers[as]
		// missingFrom[s] collects origins whose routes cannot reach s.
		missingFrom := map[topo.NodeID][]topo.NodeID{}
		for _, origin := range speakers {
			reached := ibgpReach(ix, origin)
			for _, s := range speakers {
				if s != origin && !reached[s] {
					missingFrom[s] = append(missingFrom[s], origin)
				}
			}
		}
		for _, s := range speakers { // deterministic ID order, not map order
			origins := missingFrom[s]
			if len(origins) == 0 {
				continue
			}
			example := ix.name(origins[0])
			if len(origins) == 1 {
				p.Reportf(ix.name(s), "bgp", SevError,
					"iBGP propagation gap in AS %d: routes originated at %s cannot reach this speaker", as, example)
			} else {
				p.Reportf(ix.name(s), "bgp", SevError,
					"iBGP propagation gap in AS %d: routes originated at %s (and %d other speakers) cannot reach this speaker",
					as, example, len(origins)-1)
			}
		}
	}
	return nil
}

// ibgpReach returns the speakers an origin's routes can reach over the
// iBGP session graph. BFS state is (node, learned-from-client): a
// locally-originated (or eBGP-learned) route goes to every iBGP peer;
// an iBGP-learned route is re-advertised only under the route-reflector
// rule, and whether the next hop may re-reflect depends on whether the
// receiver sees the sender as a client.
func ibgpReach(ix *index, origin topo.NodeID) map[topo.NodeID]bool {
	reached := map[topo.NodeID]bool{}
	type state struct {
		node       topo.NodeID
		fromClient bool
	}
	seen := map[state]bool{}
	var queue []state
	for _, si := range ix.byFrom[origin] {
		se := &ix.sessions[si]
		if !se.IBGP {
			continue
		}
		st := state{node: se.To, fromClient: se.ToN.RouteReflectorClient}
		if !seen[st] {
			seen[st] = true
			queue = append(queue, st)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		reached[cur.node] = true
		for _, si := range ix.byFrom[cur.node] {
			se := &ix.sessions[si]
			if !se.IBGP {
				continue
			}
			// Route-reflector rule at cur.node: reflect client-learned
			// routes to everyone, non-client routes to clients only.
			if !cur.fromClient && !se.FromN.RouteReflectorClient {
				continue
			}
			st := state{node: se.To, fromClient: se.ToN.RouteReflectorClient}
			if !seen[st] {
				seen[st] = true
				queue = append(queue, st)
			}
		}
	}
	return reached
}
