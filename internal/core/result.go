package core

import (
	"sort"

	"hoyan/internal/logic"
	"hoyan/internal/netaddr"
	"hoyan/internal/route"
	"hoyan/internal/topo"
)

// Pattern selects a group of routes for reachability queries (§5.4: "a
// particular route … or a pattern representing a group of routes").
type Pattern struct {
	// Prefix to match. When MatchCover is set, rules whose prefix covers
	// (is a supernet of) Prefix also match — aggregates count as
	// reachability for their components.
	Prefix     netaddr.Prefix
	MatchCover bool
	// ASPath, when non-nil, must equal the rule's path exactly.
	ASPath []uint32
	// NextHop constrains the rule's next hop when MatchNextHop is set.
	MatchNextHop bool
	NextHop      topo.NodeID
	// Protocols, when non-empty, restricts matching protocols.
	Protocols []route.Protocol
}

// AnyRouteTo is the common "any route to subnet p" pattern.
func AnyRouteTo(p netaddr.Prefix) Pattern {
	return Pattern{Prefix: p, MatchCover: true}
}

// ExactRoute matches one concrete route.
func ExactRoute(p netaddr.Prefix, asPath []uint32, nh topo.NodeID) Pattern {
	return Pattern{Prefix: p, ASPath: asPath, MatchNextHop: true, NextHop: nh}
}

// Matches reports whether a route satisfies the pattern.
func (pt Pattern) Matches(r route.Route) bool {
	if pt.MatchCover {
		if !r.Prefix.Covers(pt.Prefix) {
			return false
		}
	} else if r.Prefix != pt.Prefix {
		return false
	}
	if pt.ASPath != nil {
		if len(pt.ASPath) != len(r.ASPath) {
			return false
		}
		for i := range pt.ASPath {
			if pt.ASPath[i] != r.ASPath[i] {
				return false
			}
		}
	}
	if pt.MatchNextHop && pt.NextHop != r.NextHop {
		return false
	}
	if len(pt.Protocols) > 0 {
		ok := false
		for _, p := range pt.Protocols {
			if r.Protocol == p {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// f is the factory the result's conditions live in. The simulator's next
// Reset recycles it, and every method that reads a condition comes
// through here, so a Result kept past its pass fails loudly instead of
// answering from another universe.
func (r *Result) f() *logic.Factory {
	f := r.Sim.F
	if f.Recycles() != r.recycles {
		panic("core: Result used after its Simulator was Reset")
	}
	return f
}

// RIB returns the converged, FIB-ranked entries of a node.
func (r *Result) RIB(n topo.NodeID) []Entry { return r.ribs[n] }

// EntriesFor returns the node's entries for one exact prefix, ranked.
func (r *Result) EntriesFor(n topo.NodeID, p netaddr.Prefix) []Entry {
	var out []Entry
	for _, e := range r.ribs[n] {
		if e.Route.Prefix == p {
			out = append(out, e)
		}
	}
	return out
}

// ReachCond returns the topology condition under which node n holds at
// least one rule matching the pattern: V = R(r1) ∨ … ∨ R(rn) of §5.4.
func (r *Result) ReachCond(n topo.NodeID, pt Pattern) logic.F {
	f := r.f()
	cond := logic.False
	for _, e := range r.ribs[n] {
		if pt.Matches(e.Route) {
			cond = f.Or(cond, e.Cond)
		}
	}
	return cond
}

// Reachable reports whether the route is present with all links up.
func (r *Result) Reachable(n topo.NodeID, pt Pattern) bool {
	return r.f().Eval(r.ReachCond(n, pt), nil)
}

// MinFailuresToLose returns the smallest number of link failures that
// removes every matching rule from n's RIB (logic.Unfailable when the
// reachability cannot be broken within the modeled conditions), plus the
// final formula length the solver saw (Figure 13's metric).
func (r *Result) MinFailuresToLose(n topo.NodeID, pt Pattern) (int, int) {
	cond := r.ReachCond(n, pt)
	f := r.f()
	return f.MinFailuresToViolate(cond), f.Len(cond)
}

// KTolerant reports whether the reachability survives every failure case
// of at most k links.
func (r *Result) KTolerant(n topo.NodeID, pt Pattern, k int) bool {
	min, _ := r.MinFailuresToLose(n, pt)
	return min > k
}

// WitnessFailure returns a concrete minimal failure scenario breaking the
// reachability (ok=false when unbreakable). Operators act on this.
func (r *Result) WitnessFailure(n topo.NodeID, pt Pattern) (topo.FailureScenario, bool) {
	f := r.f()
	cond := r.ReachCond(n, pt)
	asn, _, ok := f.MinFailureScenario(f.Not(cond))
	if !ok {
		return nil, false
	}
	var fs topo.FailureScenario
	for v, up := range asn {
		if !up {
			fs = append(fs, topo.LinkID(v))
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	return fs, true
}

// BestUnder returns the best active route for the prefix at node n under a
// concrete failure assignment (nil = all links up), emulating what the
// converged router would install.
func (r *Result) BestUnder(n topo.NodeID, p netaddr.Prefix, asn logic.Assignment) (route.Route, bool) {
	f := r.f()
	for _, e := range r.ribs[n] {
		if e.Route.Prefix != p {
			continue
		}
		if f.Eval(e.Cond, asn) {
			return e.Route, true
		}
	}
	return route.Route{}, false
}

// ActiveEntries returns all entries whose condition holds under the
// assignment, in rank order — the concrete RIB a device would hold in that
// failure scenario. The ground-truth emulator and the tuner compare these.
func (r *Result) ActiveEntries(n topo.NodeID, asn logic.Assignment) []Entry {
	f := r.f()
	var out []Entry
	for _, e := range r.ribs[n] {
		if f.Eval(e.Cond, asn) {
			out = append(out, e)
		}
	}
	return out
}

// RoleDifference describes one divergence between two supposedly
// equivalent routers.
type RoleDifference struct {
	Prefix netaddr.Prefix
	// Field names what differs: "presence" (one router lacks any active
	// route) or an attribute name from route.DiffAttrs.
	Field string
	A, B  string
}

// EquivalentRoles checks the §7.2 equivalent-role property between two
// routers: under all-links-up convergence they must hold the same best
// routes, attribute for attribute (next-hop and learned-from necessarily
// differ between distinct routers and are excluded).
func (r *Result) EquivalentRoles(a, b topo.NodeID) []RoleDifference {
	var diffs []RoleDifference
	prefixes := map[netaddr.Prefix]bool{}
	for _, e := range r.ribs[a] {
		prefixes[e.Route.Prefix] = true
	}
	for _, e := range r.ribs[b] {
		prefixes[e.Route.Prefix] = true
	}
	sorted := make([]netaddr.Prefix, 0, len(prefixes))
	for p := range prefixes {
		sorted = append(sorted, p)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Addr != sorted[j].Addr {
			return sorted[i].Addr < sorted[j].Addr
		}
		return sorted[i].Len < sorted[j].Len
	})
	for _, p := range sorted {
		ra, okA := r.BestUnder(a, p, nil)
		rb, okB := r.BestUnder(b, p, nil)
		switch {
		case okA != okB:
			diffs = append(diffs, RoleDifference{Prefix: p, Field: "presence",
				A: presence(okA), B: presence(okB)})
		case okA && okB:
			// Neutralize node-local fields before comparing.
			ra.NextHop, rb.NextHop = topo.NoNode, topo.NoNode
			ra.FromNode, rb.FromNode = topo.NoNode, topo.NoNode
			if d := route.DiffAttrs(ra, rb); d != "" {
				diffs = append(diffs, RoleDifference{Prefix: p, Field: d, A: ra.String(), B: rb.String()})
			}
		}
	}
	return diffs
}

func presence(ok bool) string {
	if ok {
		return "present"
	}
	return "absent"
}

// routerUpVar allocates the router-aliveness variable space above the link
// variables (links are logic.Var(linkID), routers follow).
func (r *Result) routerUpVar(n topo.NodeID) logic.Var {
	return logic.Var(int32(r.Sim.M.Net.NumLinks()) + int32(n))
}

// RouterFailureCond re-expresses a topology condition over router-
// aliveness variables: every link is up only while both endpoints are up
// (Table 1's "handling failures of router/link"; the paper models a
// router failure as all of its links failing). Routers in keepUp are
// pinned alive — callers exclude the origin and the querying router,
// whose failure trivially destroys reachability.
func (r *Result) RouterFailureCond(cond logic.F, keepUp []topo.NodeID) logic.F {
	f := r.f()
	pinned := map[topo.NodeID]bool{}
	for _, n := range keepUp {
		pinned[n] = true
	}
	up := func(n topo.NodeID) logic.F {
		if pinned[n] {
			return logic.True
		}
		return f.Var(r.routerUpVar(n))
	}
	sub := map[logic.Var]logic.F{}
	for _, l := range r.Sim.M.Net.Links() {
		sub[r.Sim.M.Net.AliveVar(l.ID)] = f.And(up(l.A), up(l.B))
	}
	return f.Substitute(cond, sub)
}

// MinRouterFailuresToLose returns the smallest number of ROUTER failures
// that removes every rule matching the pattern from n's RIB, never
// counting n itself or the matching routes' origins (their failure is
// trivially fatal). logic.Unfailable means no router set within the
// modeled conditions breaks it.
func (r *Result) MinRouterFailuresToLose(n topo.NodeID, pt Pattern) int {
	keep := []topo.NodeID{n}
	seen := map[topo.NodeID]bool{n: true}
	for _, e := range r.ribs[n] {
		if pt.Matches(e.Route) && !seen[e.Route.OriginNode] {
			seen[e.Route.OriginNode] = true
			keep = append(keep, e.Route.OriginNode)
		}
	}
	cond := r.RouterFailureCond(r.ReachCond(n, pt), keep)
	return r.f().MinFailuresToViolate(cond)
}
