// Package racing detects non-deterministic route-update racing (§5.4 and
// Appendix B): configurations whose converged routes depend on the arrival
// order of BGP updates. The algorithm floods all of a prefix's route
// updates without route-selection drops, encodes the selection relations
// as boolean constraints — one indicator variable per (node, candidate
// route) — and asks the SAT engine for multiple solutions. More than one
// stable solution means the convergence is ambiguous and the configuration
// is buggy under racing (Figure 1's incident).
package racing

import (
	"fmt"
	"sort"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/logic"
	"hoyan/internal/netaddr"
	"hoyan/internal/route"
	"hoyan/internal/sat"
	"hoyan/internal/topo"
)

// Candidate is one route instance at one node, identified by its full
// propagation path.
type Candidate struct {
	ID    int
	Node  topo.NodeID
	Route route.Route
	// Pred is the candidate this one was propagated from (-1 for locally
	// originated candidates).
	Pred int
	// Path is the node sequence the update traversed, origin first.
	Path []topo.NodeID
}

// String renders the candidate like the paper's m_{C→A→B} notation.
func (c Candidate) String() string {
	return fmt.Sprintf("m[%v]@%d %s", c.Path, c.Node, c.Route.Prefix)
}

// Options bounds the flood.
type Options struct {
	// MaxCandidates caps the flooded candidate count; exceeding it
	// aborts with an error (the paper argues policies keep this moderate
	// in practice).
	MaxCandidates int
	// MaxSolutions bounds the enumeration; 2 suffices for ambiguity
	// detection, larger values enumerate distinct convergences.
	MaxSolutions int
	// MaxPathLen bounds the propagation paths considered (0 = 8). Racing
	// ambiguities live on short cycles (Figure 1's is length 4); very long
	// echo paths — e.g. loops tolerated by permissive as-loop vendors —
	// multiply candidates without adding detection power, so the analysis
	// is bounded-path.
	MaxPathLen int
}

// DefaultOptions returns the standard bounds. The flood is roughly
// quadratic in routers on reflector-structured WANs (reflection chains
// terminate after one core hop), so the cap is sized for O(100)-router
// networks.
func DefaultOptions() Options {
	return Options{MaxCandidates: 65536, MaxSolutions: 2, MaxPathLen: 8}
}

// Report is the outcome of a racing check.
type Report struct {
	Prefix     netaddr.Prefix
	Candidates []Candidate
	// Solutions are the distinct stable selections found (projected on
	// candidate indicators), at most MaxSolutions.
	Solutions []map[int]bool
	// Ambiguous is true when more than one stable convergence exists.
	Ambiguous bool
	// AmbiguousNodes lists nodes whose selected route differs between the
	// first two solutions.
	AmbiguousNodes []topo.NodeID
}

// Detect floods the prefix's updates and checks convergence ambiguity.
func Detect(sim *core.Simulator, prefix netaddr.Prefix, opts Options) (*Report, error) {
	if opts.MaxCandidates == 0 {
		opts.MaxCandidates = 65536
	}
	if opts.MaxSolutions < 2 {
		opts.MaxSolutions = 2
	}
	if opts.MaxPathLen == 0 {
		opts.MaxPathLen = 8
	}
	m := sim.M
	report := &Report{Prefix: prefix}

	// Seed: locally originated routes for the prefix.
	var queue []int
	add := func(c Candidate) (int, error) {
		if len(report.Candidates) >= opts.MaxCandidates {
			return -1, fmt.Errorf("racing: candidate flood exceeded %d for %s", opts.MaxCandidates, prefix)
		}
		c.ID = len(report.Candidates)
		report.Candidates = append(report.Candidates, c)
		return c.ID, nil
	}
	resolve := func(name string) (topo.NodeID, bool) { return m.Resolve(name) }
	for _, node := range m.Net.Nodes() {
		for _, r := range m.Devices[node.ID].OriginatedBGP(resolve) {
			if r.Prefix != prefix {
				continue
			}
			id, err := add(Candidate{Node: node.ID, Route: r, Pred: -1, Path: []topo.NodeID{node.ID}})
			if err != nil {
				return nil, err
			}
			queue = append(queue, id)
		}
	}

	// Sessions grouped by sender.
	sessions, err := sim.SessionList()
	if err != nil {
		return nil, err
	}
	// Each session's neighbor entries are resolved once, from the
	// devices' configurations, for the pipelines below.
	type hop struct {
		to         topo.NodeID
		fromN, toN *config.Neighbor
	}
	bySender := map[topo.NodeID][]hop{}
	for _, se := range sessions {
		if !se.Possible {
			continue
		}
		devU, devV := m.Devices[se.From], m.Devices[se.To]
		fromN, _ := devU.Neighbor(devV.Cfg.Hostname)
		toN, _ := devV.Neighbor(devU.Cfg.Hostname)
		bySender[se.From] = append(bySender[se.From], hop{se.To, fromN, toN})
	}

	// Flood without selection drops: every candidate is propagated over
	// every session whose pipelines pass it.
	for len(queue) > 0 {
		cid := queue[0]
		queue = queue[1:]
		c := report.Candidates[cid]
		devU := m.Devices[c.Node]
		if len(c.Path) >= opts.MaxPathLen {
			continue
		}
		for _, h := range bySender[c.Node] {
			devV := m.Devices[h.to]
			if onPath(c.Path, h.to) {
				continue
			}
			eg := devU.ProcessEgress(c.Route, devV, h.fromN)
			if eg.Verdict != behavior.Pass {
				continue
			}
			ing := devV.ProcessIngress(eg.Route, devU, h.toN)
			if ing.Verdict != behavior.Pass {
				continue
			}
			path := append(append([]topo.NodeID(nil), c.Path...), h.to)
			id, err := add(Candidate{Node: h.to, Route: ing.Route, Pred: cid, Path: path})
			if err != nil {
				return nil, err
			}
			queue = append(queue, id)
		}
	}

	// Encode selection relations: I_c ↔ I_pred(c) ∧ ⋀_{h ranked higher at
	// the same node} ¬I_h (Appendix B step (iii)).
	f := logic.NewFactory()
	iVar := func(id int) logic.F { return f.Var(logic.Var(id)) }
	byNode := map[topo.NodeID][]int{}
	for _, c := range report.Candidates {
		byNode[c.Node] = append(byNode[c.Node], c.ID)
	}
	formula := logic.True
	for node, ids := range byNode {
		rankCandidates(sim, report.Candidates, ids, node)
		for i, id := range ids {
			c := report.Candidates[id]
			rhs := logic.True
			if c.Pred >= 0 {
				rhs = iVar(c.Pred)
			}
			for j := 0; j < i; j++ {
				rhs = f.And(rhs, f.Not(iVar(ids[j])))
			}
			// I_c ↔ rhs
			iff := f.And(f.Or(f.Not(iVar(id)), rhs), f.Or(iVar(id), f.Not(rhs)))
			formula = f.And(formula, iff)
		}
	}

	if len(report.Candidates) == 0 {
		return report, nil
	}
	tr := sat.TseitinInputs(f, []logic.F{formula}, len(report.Candidates))
	tr.CNF.Add(tr.Roots[0])
	var proj []int32
	for id := range report.Candidates {
		proj = append(proj, int32(tr.InputLit(logic.Var(id))))
	}
	models, err := sat.AllModels(tr.CNF, proj, opts.MaxSolutions)
	if err != nil {
		return nil, err
	}
	for _, mm := range models {
		sel := map[int]bool{}
		for id := range report.Candidates {
			sel[id] = mm[tr.InputLit(logic.Var(id)).Var()]
		}
		report.Solutions = append(report.Solutions, sel)
	}
	report.Ambiguous = len(report.Solutions) > 1
	if report.Ambiguous {
		s0, s1 := report.Solutions[0], report.Solutions[1]
		seen := map[topo.NodeID]bool{}
		for id, c := range report.Candidates {
			if s0[id] != s1[id] && !seen[c.Node] {
				seen[c.Node] = true
				report.AmbiguousNodes = append(report.AmbiguousNodes, c.Node)
			}
		}
		sort.Slice(report.AmbiguousNodes, func(i, j int) bool {
			return report.AmbiguousNodes[i] < report.AmbiguousNodes[j]
		})
	}
	return report, nil
}

// rankCandidates orders the candidate IDs at one node best-first using the
// device's route selection with deterministic tie-breaks.
func rankCandidates(sim *core.Simulator, cands []Candidate, ids []int, node topo.NodeID) {
	ridOf := func(id int) uint32 {
		c := cands[id]
		if c.Route.FromNode == topo.NoNode {
			return sim.M.Net.Node(node).RouterID
		}
		return sim.M.Net.Node(c.Route.FromNode).RouterID
	}
	sort.SliceStable(ids, func(a, b int) bool {
		ca, cb := cands[ids[a]], cands[ids[b]]
		// Attribute comparison first with router IDs neutralized: the
		// BGP decision process puts cluster-list length BEFORE the
		// router-id tie-break, and the cluster-list analog here is the
		// propagation hop count. Without this order, route-reflector
		// meshes look spuriously order-dependent.
		if route.Better(ca.Route, cb.Route, 0, 0) {
			return true
		}
		if route.Better(cb.Route, ca.Route, 0, 0) {
			return false
		}
		if len(ca.Path) != len(cb.Path) {
			return len(ca.Path) < len(cb.Path)
		}
		if ra, rb := ridOf(ids[a]), ridOf(ids[b]); ra != rb {
			return ra < rb
		}
		return ids[a] < ids[b]
	})
}

func onPath(path []topo.NodeID, n topo.NodeID) bool {
	for _, p := range path {
		if p == n {
			return true
		}
	}
	return false
}

// SelectedAt returns the candidate selected at a node in one solution, if
// any.
func (r *Report) SelectedAt(sol int, node topo.NodeID) (Candidate, bool) {
	for _, c := range r.Candidates {
		if c.Node == node && r.Solutions[sol][c.ID] {
			return c, true
		}
	}
	return Candidate{}, false
}
