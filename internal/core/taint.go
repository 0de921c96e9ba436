// Taint recording: the dependency side of incremental re-verification
// (DESIGN.md, "Incremental re-verification"). While Run simulates one
// prefix family, the engine marks — with plain bool stores in the hot
// path — which devices held, sent or were offered family routes. The
// captured Taint, stored with the class's report, bounds which model
// deltas can change the report: a change at an untainted device cannot
// create routes the simulation never saw, so classes whose taint is
// disjoint from a delta replay their cached report instead of
// re-simulating.
package core

import (
	"hoyan/internal/netaddr"
	"hoyan/internal/topo"
)

// Taint is the consulted set of one prefix-family simulation.
type Taint struct {
	// Nodes lists every device that originated, held, sent, or was
	// offered a family route (including offers its ingress then dropped —
	// an ingress change could admit them): both endpoints of every
	// session over which family routes were considered.
	Nodes []topo.NodeID
	// Universe is the run's prefix universe: the simulated family plus
	// every overlapping origin prefix that joined the simulation.
	Universe []netaddr.Prefix
}

// Taint returns what the run consulted. The returned value is owned by
// the Result and remains valid after the simulator is Reset.
func (r *Result) Taint() Taint { return r.taint }

// captureTaint copies the run's taint marks out of the recycled scratch.
func (s *Simulator) captureTaint() Taint {
	sc := &s.sc
	var t Taint
	for id, tainted := range sc.taintNode {
		if tainted {
			t.Nodes = append(t.Nodes, topo.NodeID(id))
		}
	}
	t.Universe = append([]netaddr.Prefix(nil), sc.prefixes...)
	return t
}

// taintSession marks both endpoints of a session over which family routes
// were considered.
func (s *Simulator) taintSession(se session) {
	s.sc.taintNode[se.From] = true
	s.sc.taintNode[se.To] = true
}
