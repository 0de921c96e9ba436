// Package minesweeper reimplements the algorithmic core of formula-based
// configuration verification (Minesweeper, §2(ii)): encode the ENTIRE
// network's route propagation for a prefix into one logical formula with
// symbolic link-failure variables, then hand the whole thing to a solver.
// The formula covers every device, session and failure case at once, which
// is precisely why it grows so much faster than Hoyan's per-prefix local
// conditions (Appendix F compares formula sizes: 230k–4.7M versus 242–543).
//
// The encoding is a bounded unrolling (network diameter rounds) of:
//
//	R_n^t ↔ R_n^{t-1} ∨ ⋁_{sessions u→n that pass policy} (R_u^{t-1} ∧ Alive(u,n))
//
// with iBGP session aliveness itself encoded as unrolled IGP reachability
// over symbolic links — the quadratic sub-encoding that dominates the
// formula. k-failure tolerance is a SAT query: do ≤k failed links exist
// under which the target's R variable is false?
package minesweeper

import (
	"fmt"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/netaddr"
	"hoyan/internal/route"
	"hoyan/internal/sat"
	"hoyan/internal/topo"
)

// Verifier encodes and solves queries for one network.
type Verifier struct {
	Net   *topo.Network
	Snap  config.Snapshot
	Model *core.Model
	// ConflictBudget bounds the SAT search (0 = unlimited), emulating the
	// >24h timeouts of Tables 4/5.
	ConflictBudget int64
	// Deadline bounds a check's wall time (0 = none).
	Deadline time.Duration
}

// ErrTimeout reports an exhausted time budget.
var ErrTimeout = sat.ErrLimit

// New builds the verifier.
func New(net *topo.Network, snap config.Snapshot, reg *behavior.Registry) (*Verifier, error) {
	m, err := core.Assemble(net, snap, reg)
	if err != nil {
		return nil, err
	}
	return &Verifier{Net: net, Snap: snap, Model: m}, nil
}

// Encoding is a monolithic CNF for one prefix plus the variable maps
// needed to pose queries.
type Encoding struct {
	CNF *sat.CNF
	// LinkAlive[l] is the CNF literal for "link l is up".
	LinkAlive []sat.Lit
	// Reach[n] is "node n holds a route for the prefix" at the final
	// round.
	Reach []sat.Lit
	// Clauses reports the formula size (the Appendix F metric).
	Clauses int
}

// Encode builds the whole-network formula for a prefix.
func (v *Verifier) Encode(prefix netaddr.Prefix) (*Encoding, error) {
	n := v.Net.NumNodes()
	diameter := n // safe unrolling depth
	c := sat.NewCNF()
	enc := &Encoding{CNF: c}

	// Symbolic link variables.
	enc.LinkAlive = make([]sat.Lit, v.Net.NumLinks())
	for l := range enc.LinkAlive {
		enc.LinkAlive[l] = c.NewVar()
	}

	// iBGP session aliveness: unrolled IGP reachability P[u][w][t] —
	// "w reachable from u over IS-IS links within t hops".
	isis := func(id topo.NodeID) bool {
		cfg := v.Model.Configs[id]
		return cfg.ISIS != nil && cfg.ISIS.Enabled
	}
	igpReach := func(u topo.NodeID) []sat.Lit {
		// BFS-style unrolling from u; returns final-round literals.
		cur := make([]sat.Lit, n)
		for w := 0; w < n; w++ {
			cur[w] = c.NewVar()
			if topo.NodeID(w) == u {
				c.Add(cur[w])
			} else {
				c.Add(cur[w].Neg())
			}
		}
		depth := n
		for t := 1; t <= depth; t++ {
			next := make([]sat.Lit, n)
			for w := 0; w < n; w++ {
				next[w] = c.NewVar()
				// next[w] ↔ cur[w] ∨ ⋁_{adj (x,w), isis both} (cur[x] ∧ alive)
				var terms []sat.Lit
				terms = append(terms, cur[w])
				if isis(topo.NodeID(w)) {
					for _, ad := range v.Net.Neighbors(topo.NodeID(w)) {
						if !isis(ad.Peer) {
							continue
						}
						and := c.NewVar()
						// and ↔ cur[peer] ∧ alive(link)
						c.Add(and.Neg(), cur[ad.Peer])
						c.Add(and.Neg(), enc.LinkAlive[ad.Link])
						c.Add(and, cur[ad.Peer].Neg(), enc.LinkAlive[ad.Link].Neg())
						terms = append(terms, and)
					}
				}
				addOrDef(c, next[w], terms)
			}
			cur = next
		}
		return cur
	}
	igpFrom := map[topo.NodeID][]sat.Lit{}

	// Sessions that can carry this prefix (policy pre-screen on the
	// origin route — the attribute-abstraction Minesweeper also makes for
	// scale).
	type sess struct {
		from, to topo.NodeID
		alive    sat.Lit
	}
	var sessions []sess
	probe := route.New(prefix, route.EBGP, 0)
	for _, node := range v.Net.Nodes() {
		dev := v.Model.Devices[node.ID]
		if dev.Cfg.BGP == nil {
			continue
		}
		for _, nb := range dev.Cfg.BGP.Neighbors {
			peerID, ok := v.Model.Resolve(nb.PeerName)
			if !ok {
				continue
			}
			peer := v.Model.Devices[peerID]
			back, ok := peer.Neighbor(node.Name)
			if !ok {
				continue
			}
			pr := probe
			pr.OriginNode = node.ID
			eg := dev.ProcessEgress(pr, peer, nb)
			if eg.Verdict != behavior.Pass {
				continue
			}
			if ing := peer.ProcessIngress(eg.Route, dev, back); ing.Verdict != behavior.Pass {
				continue
			}
			var alive sat.Lit
			if dev.SessionTypeTo(peer) == behavior.SessEBGP || !isis(node.ID) || !isis(peerID) {
				// Direct session: any parallel link up.
				var links []sat.Lit
				for _, ad := range v.Net.Neighbors(node.ID) {
					if ad.Peer == peerID {
						links = append(links, enc.LinkAlive[ad.Link])
					}
				}
				if len(links) == 0 {
					continue
				}
				alive = c.NewVar()
				addOrDef(c, alive, links)
			} else {
				// iBGP over IS-IS: both directions reachable.
				if igpFrom[node.ID] == nil {
					igpFrom[node.ID] = igpReach(node.ID)
				}
				if igpFrom[peerID] == nil {
					igpFrom[peerID] = igpReach(peerID)
				}
				alive = c.NewVar()
				a1 := igpFrom[node.ID][peerID]
				a2 := igpFrom[peerID][node.ID]
				c.Add(alive.Neg(), a1)
				c.Add(alive.Neg(), a2)
				c.Add(alive, a1.Neg(), a2.Neg())
			}
			sessions = append(sessions, sess{from: node.ID, to: peerID, alive: alive})
		}
	}

	// Route propagation unrolling.
	origins := map[topo.NodeID]bool{}
	for _, o := range v.Model.AnnouncersOf(prefix) {
		origins[o] = true
	}
	cur := make([]sat.Lit, n)
	for w := 0; w < n; w++ {
		cur[w] = c.NewVar()
		if origins[topo.NodeID(w)] {
			c.Add(cur[w])
		} else {
			c.Add(cur[w].Neg())
		}
	}
	for t := 1; t <= diameter; t++ {
		next := make([]sat.Lit, n)
		for w := 0; w < n; w++ {
			next[w] = c.NewVar()
			terms := []sat.Lit{cur[w]}
			for _, se := range sessions {
				if se.to != topo.NodeID(w) {
					continue
				}
				and := c.NewVar()
				c.Add(and.Neg(), cur[se.from])
				c.Add(and.Neg(), se.alive)
				c.Add(and, cur[se.from].Neg(), se.alive.Neg())
				terms = append(terms, and)
			}
			addOrDef(c, next[w], terms)
		}
		cur = next
	}
	enc.Reach = cur
	enc.Clauses = c.NumClauses()
	return enc, nil
}

// addOrDef adds def ↔ ⋁terms.
func addOrDef(c *sat.CNF, def sat.Lit, terms []sat.Lit) {
	cl := make([]sat.Lit, 0, len(terms)+1)
	cl = append(cl, def.Neg())
	for _, t := range terms {
		c.Add(def, t.Neg())
		cl = append(cl, t)
	}
	c.Add(cl...)
}

// Report mirrors the Batfish baseline's result shape.
type Report struct {
	Tolerant bool
	Witness  topo.FailureScenario
	// Clauses is the monolithic formula size.
	Clauses int
}

// CheckRouteReach asks whether any ≤k-link failure removes the target's
// route — one big SAT query over the whole-network encoding.
func (v *Verifier) CheckRouteReach(prefix netaddr.Prefix, target string, k int) (Report, error) {
	node, ok := v.Net.NodeByName(target)
	if !ok {
		return Report{}, fmt.Errorf("minesweeper: unknown node %q", target)
	}
	enc, err := v.Encode(prefix)
	if err != nil {
		return Report{}, err
	}
	c := enc.CNF
	// failed_l ↔ ¬alive_l; at most k failed.
	failed := make([]sat.Lit, len(enc.LinkAlive))
	for i, a := range enc.LinkAlive {
		failed[i] = c.NewVar()
		c.Add(failed[i], a)
		c.Add(failed[i].Neg(), a.Neg())
	}
	c.AtMostK(failed, k)
	// Violation: target unreachable.
	c.Add(enc.Reach[node.ID].Neg())

	s := sat.NewSolver(c)
	if v.ConflictBudget > 0 {
		s.SetConflictBudget(v.ConflictBudget)
	}
	if v.Deadline > 0 {
		s.SetDeadline(time.Now().Add(v.Deadline))
	}
	model, satisfiable, err := s.Solve()
	if err != nil {
		return Report{Clauses: enc.Clauses}, err
	}
	rep := Report{Tolerant: !satisfiable, Clauses: enc.Clauses}
	if satisfiable {
		for l, a := range enc.LinkAlive {
			if !model[a.Var()] {
				rep.Witness = append(rep.Witness, topo.LinkID(l))
			}
		}
	}
	return rep, nil
}
