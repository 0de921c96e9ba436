// Package dataplane derives FIBs from the converged RIBs of a core
// simulation and performs the symbolic packet propagation of §5.5 /
// Figure 5: packets carry topology conditions, hit FIB rules under
// exclusive longest-prefix-match guards, pass data-plane ACLs (with the
// vendor default-ACL VSB), and are pruned exactly like route updates.
package dataplane

import (
	"sort"

	"hoyan/internal/core"
	"hoyan/internal/logic"
	"hoyan/internal/netaddr"
	"hoyan/internal/topo"
)

// Rule is one FIB rule: packets to Prefix forward to the adjacent NextHop
// while Cond holds. Local delivers on this router.
type Rule struct {
	Prefix  netaddr.Prefix
	NextHop topo.NodeID
	Local   bool
	Cond    logic.F
	// Rank preserves the RIB preference order among same-prefix rules.
	Rank int
}

// FIB is the forwarding state of every node for one simulated prefix
// family.
type FIB struct {
	Res   *core.Result
	rules [][]Rule // by node
}

// Build folds each node's RIB into FIB rules, resolving remote (iBGP)
// next hops recursively through the IGP: a rule whose next hop is not
// adjacent becomes one rule per IS-IS first hop toward that next hop,
// with the hop's condition conjoined (recursive route resolution with
// failure awareness, igp.Engine.NextHops).
func Build(res *core.Result) *FIB {
	sim := res.Sim
	f := sim.F
	n := sim.M.Net.NumNodes()
	fib := &FIB{Res: res, rules: make([][]Rule, n)}
	for id := 0; id < n; id++ {
		node := topo.NodeID(id)
		rank := 0
		for _, e := range res.RIB(node) {
			rank++
			if e.Route.NextHop == node || e.Route.OriginNode == node && e.Route.FromNode == topo.NoNode {
				fib.rules[id] = append(fib.rules[id], Rule{
					Prefix: e.Route.Prefix, NextHop: node, Local: true, Cond: e.Cond, Rank: rank,
				})
				continue
			}
			switch hops := sim.IGP.NextHops(e.Route.NextHop, node); {
			case len(hops) > 0:
				// Recursive resolution via the IS-IS first hops. This
				// branch comes before plain adjacency: an adjacent iBGP
				// next hop still reroutes through the IGP when the direct
				// link fails.
				for _, hop := range hops {
					cond := f.And(e.Cond, hop.Cond)
					if f.Impossible(cond) {
						continue
					}
					fib.rules[id] = append(fib.rules[id], Rule{
						Prefix: e.Route.Prefix, NextHop: hop.Next, Cond: cond, Rank: rank,
					})
				}
			case adjacent(sim.M.Net, node, e.Route.NextHop):
				fib.rules[id] = append(fib.rules[id], Rule{
					Prefix: e.Route.Prefix, NextHop: e.Route.NextHop, Cond: e.Cond, Rank: rank,
				})
			}
		}
		// LPM order: longer prefixes first, then RIB rank (§5.5 footnote).
		sort.SliceStable(fib.rules[id], func(a, b int) bool {
			ra, rb := fib.rules[id][a], fib.rules[id][b]
			if ra.Prefix.Len != rb.Prefix.Len {
				return ra.Prefix.Len > rb.Prefix.Len
			}
			return ra.Rank < rb.Rank
		})
	}
	return fib
}

func adjacent(net *topo.Network, a, b topo.NodeID) bool {
	_, ok := net.LinkBetween(a, b)
	return ok
}

// Rules returns a node's FIB rules in match order.
func (fib *FIB) Rules(n topo.NodeID) []Rule { return fib.rules[n] }

// Stats counts packet-propagation work, the data-plane analogue of the
// route Stats.
type Stats struct {
	Branches          int
	DroppedACL        int
	DroppedOverK      int
	DroppedImpossible int
	DroppedTTL        int
	Delivered         int
	MaxCondLen        int
}

// PacketResult is the outcome of one symbolic packet reachability run.
type PacketResult struct {
	// Cond is the topology condition under which at least one copy of the
	// packet reaches the gateway.
	Cond  logic.F
	Stats Stats
}

const maxTTL = 32

// PacketReach runs the Figure 5 symbolic execution: a packet enters at
// src addressed to dstAddr and must reach the gateway node. srcAddr feeds
// source-matching ACLs.
func (fib *FIB) PacketReach(src topo.NodeID, srcAddr, dstAddr uint32, gateway topo.NodeID) PacketResult {
	sim := fib.Res.Sim
	f := sim.F
	opts := sim.Opts
	res := PacketResult{Cond: logic.False}

	type branch struct {
		node    topo.NodeID
		cond    logic.F
		ttl     int
		visited map[topo.NodeID]bool
	}
	start := branch{node: src, cond: logic.True, ttl: maxTTL, visited: map[topo.NodeID]bool{src: true}}
	queue := []branch{start}
	for len(queue) > 0 {
		b := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if b.node == gateway {
			res.Cond = f.Or(res.Cond, b.cond)
			res.Stats.Delivered++
			continue
		}
		if b.ttl == 0 {
			res.Stats.DroppedTTL++
			continue
		}
		// Matching FIB rules in LPM order with exclusive guards
		// (Appendix D rule (i)).
		notHigher := logic.True
		for _, rule := range fib.rules[b.node] {
			if !rule.Prefix.Contains(dstAddr) {
				continue
			}
			res.Stats.Branches++
			guard := f.AndAll(b.cond, notHigher, rule.Cond)
			notHigher = f.And(notHigher, f.Not(rule.Cond))
			if rule.Local {
				// Delivered locally only if this node is the gateway
				// (checked above); a local rule on a non-gateway node
				// means the packet terminates here — wrong gateway.
				if opts.PruneImpossible && f.Impossible(guard) {
					res.Stats.DroppedImpossible++
					continue
				}
				if b.node == gateway {
					res.Cond = f.Or(res.Cond, guard)
					res.Stats.Delivered++
				}
				continue
			}
			if opts.PruneImpossible && f.Impossible(guard) {
				res.Stats.DroppedImpossible++
				continue
			}
			if opts.PruneOverK && f.MinFalse(guard) > opts.K {
				res.Stats.DroppedOverK++
				continue
			}
			// Data-plane ACLs: sender egress, receiver ingress (the
			// default-ACL VSB applies to unmatched packets).
			devU := sim.M.Devices[b.node]
			devV := sim.M.Devices[rule.NextHop]
			if ok, _, _ := devU.PermitData(devV.Cfg.Hostname, "out", srcAddr, dstAddr); !ok {
				res.Stats.DroppedACL++
				continue
			}
			if ok, _, _ := devV.PermitData(devU.Cfg.Hostname, "in", srcAddr, dstAddr); !ok {
				res.Stats.DroppedACL++
				continue
			}
			if b.visited[rule.NextHop] {
				res.Stats.DroppedTTL++
				continue
			}
			if n := f.Len(guard); n > res.Stats.MaxCondLen {
				res.Stats.MaxCondLen = n
			}
			if opts.Simplify && f.Len(guard) > core.SimplifyThreshold {
				guard = f.Simplify(guard)
			}
			visited := map[topo.NodeID]bool{rule.NextHop: true}
			for k := range b.visited {
				visited[k] = true
			}
			queue = append(queue, branch{node: rule.NextHop, cond: guard, ttl: b.ttl - 1, visited: visited})
		}
	}
	return res
}

// ReachAny returns the condition under which a packet from src to
// dstAddr reaches at least one of gateways: the OR of their PacketReach
// conditions, in gateway order.
func (fib *FIB) ReachAny(src topo.NodeID, srcAddr, dstAddr uint32, gateways []topo.NodeID) logic.F {
	f := fib.Res.Sim.F
	cond := logic.False
	for _, g := range gateways {
		cond = f.Or(cond, fib.PacketReach(src, srcAddr, dstAddr, g).Cond)
	}
	return cond
}

// Reachable reports packet reachability with all links up.
func (fib *FIB) Reachable(src topo.NodeID, srcAddr, dstAddr uint32, gateway topo.NodeID) bool {
	pr := fib.PacketReach(src, srcAddr, dstAddr, gateway)
	return fib.Res.Sim.F.Eval(pr.Cond, nil)
}

// MinFailuresToLose returns the smallest number of link failures breaking
// packet reachability, or logic.Unfailable.
func (fib *FIB) MinFailuresToLose(src topo.NodeID, srcAddr, dstAddr uint32, gateway topo.NodeID) int {
	pr := fib.PacketReach(src, srcAddr, dstAddr, gateway)
	return fib.Res.Sim.F.MinFailuresToViolate(pr.Cond)
}

// KTolerant reports whether packet reachability survives any k link
// failures.
func (fib *FIB) KTolerant(src topo.NodeID, srcAddr, dstAddr uint32, gateway topo.NodeID, k int) bool {
	return fib.MinFailuresToLose(src, srcAddr, dstAddr, gateway) > k
}

// ForwardUnder traces the concrete forwarding path of a packet under a
// failure assignment, returning the node sequence and whether it reached
// the gateway. Used by tests and the device emulator comparison.
func (fib *FIB) ForwardUnder(src topo.NodeID, srcAddr, dstAddr uint32, gateway topo.NodeID, asn logic.Assignment) ([]topo.NodeID, bool) {
	f := fib.Res.Sim.F
	path := []topo.NodeID{src}
	cur := src
	for ttl := 0; ttl < maxTTL; ttl++ {
		if cur == gateway {
			return path, true
		}
		var chosen *Rule
		for i := range fib.rules[cur] {
			rule := &fib.rules[cur][i]
			if rule.Prefix.Contains(dstAddr) && f.Eval(rule.Cond, asn) {
				chosen = rule
				break
			}
		}
		if chosen == nil || chosen.Local {
			return path, cur == gateway
		}
		devU := fib.Res.Sim.M.Devices[cur]
		devV := fib.Res.Sim.M.Devices[chosen.NextHop]
		if ok, _, _ := devU.PermitData(devV.Cfg.Hostname, "out", srcAddr, dstAddr); !ok {
			return path, false
		}
		if ok, _, _ := devV.PermitData(devU.Cfg.Hostname, "in", srcAddr, dstAddr); !ok {
			return path, false
		}
		cur = chosen.NextHop
		path = append(path, cur)
	}
	return path, false
}

// RouteVsPacketGap demonstrates §5.1's point that route reachability does
// not imply packet reachability: it returns true when the route to p is
// present at src but the packet cannot reach the gateway (ACLs, LPM).
func (fib *FIB) RouteVsPacketGap(src topo.NodeID, p netaddr.Prefix, gateway topo.NodeID) bool {
	hasRoute := fib.Res.Reachable(src, core.AnyRouteTo(p))
	addr := p.Addr
	return hasRoute && !fib.Reachable(src, 0, addr, gateway)
}
