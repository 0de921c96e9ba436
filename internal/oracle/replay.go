// Package oracle checks the verifier's verdicts against references that
// share none of its symbolic machinery: no condition, prune, BDD, memo,
// class or store code.
package oracle

import (
	"fmt"

	"hoyan/internal/baseline/batfish"
	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dataplane"
	"hoyan/internal/logic"
	"hoyan/internal/netaddr"
	"hoyan/internal/topo"
)

// Refutation is a witness that did not break its router's verdict: a
// false alarm. The router still holds the route, or its packet still
// arrives, with every link of the witness failed.
type Refutation struct {
	Prefix  netaddr.Prefix
	Router  string
	Witness topo.FailureScenario
}

// Replay is what ReplayWitnesses or ReplayPacketWitnesses found.
type Replay struct {
	// Verdicts counts the finite verdicts replayed: (prefix, router)
	// pairs whose route or packet breaks under 1 to K link failures.
	Verdicts int
	// Runs counts the concrete simulations, one per distinct witness of a
	// prefix.
	Runs int
	// Refuted lists the witnesses under which the router's verdict still
	// holds, in prefix order, then in node order.
	Refuted []Refutation
}

// plant, when set, replaces the witness replayed for a router: the hook a
// test plants a false alarm through. Nil outside tests.
var plant func(p netaddr.Prefix, router string, w topo.FailureScenario) topo.FailureScenario

// ReplayWitnesses checks the finite route verdicts of a sweep at failure
// budget k one-sidedly. For every prefix and every BGP speaker whose
// route the symbolic simulation (the model's Shared under
// core.DefaultOptions, as a sweep executor runs it) says breaks under m
// link failures, 1 ≤ m ≤ k, it takes the minimal failure set the solver
// picks (core.Result.WitnessFailure) and simulates that one scenario
// concretely (batfish.SimulateScenario: K=0 on the topology without the
// witness's links). The router must have lost the route. Routers of a
// prefix that share a witness share its run. The check catches false
// alarms, a condition false on a world where the route is held; it does
// not catch a missed break.
func ReplayWitnesses(n *topo.Network, snap config.Snapshot, reg *behavior.Registry, k int, prefixes []netaddr.Prefix) (*Replay, error) {
	return replay(n, snap, reg, k, prefixes, func(p netaddr.Prefix, res *core.Result) func(topo.NodeID) logic.F {
		pat := core.AnyRouteTo(p)
		return func(node topo.NodeID) logic.F { return res.ReachCond(node, pat) }
	})
}

// ReplayPacketWitnesses is ReplayWitnesses for packet verdicts, the
// answers of hoyan.Verifier.PacketReach: a packet from the router to the
// prefix's first address reaches some announcer (dataplane.FIB.ReachAny
// over the announcers). The witness is the
// minimal failure set that breaks that condition, and its concrete replay
// runs batfish.SimulateScenario → dataplane.Build → FIB.Reachable: the
// packet must reach no announcer there.
func ReplayPacketWitnesses(n *topo.Network, snap config.Snapshot, reg *behavior.Registry, k int, prefixes []netaddr.Prefix) (*Replay, error) {
	return replay(n, snap, reg, k, prefixes, func(p netaddr.Prefix, res *core.Result) func(topo.NodeID) logic.F {
		fib := dataplane.Build(res)
		anns := res.Sim.M.AnnouncersOf(p)
		return func(node topo.NodeID) logic.F { return fib.ReachAny(node, 0, p.Addr+1, anns) }
	})
}

// replay runs a witness replay of the verdict verdict reads: given a
// prefix's run, symbolic or concrete, it returns each router's verdict
// condition in the run's factory. A concrete run's condition holds or
// not with every link of its reduced topology up.
func replay(n *topo.Network, snap config.Snapshot, reg *behavior.Registry, k int, prefixes []netaddr.Prefix,
	verdict func(netaddr.Prefix, *core.Result) func(topo.NodeID) logic.F) (*Replay, error) {
	m, err := core.Assemble(n, snap, reg)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.K = k
	sh := core.NewShared(m, opts)
	if err := sh.Err(); err != nil {
		return nil, err
	}
	sim := sh.NewSimulator()
	concrete := batfish.New(n, snap, reg)
	out := &Replay{}
	for _, p := range prefixes {
		res, err := sim.Run(p)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", p, err)
		}
		f, cond := sim.F, verdict(p, res)
		// The witness of every finite verdict by node (-1 for none), and
		// the distinct witnesses in first-seen order.
		witnessOf := make([]int, m.Net.NumNodes())
		var witnesses []topo.FailureScenario
		index := map[string]int{}
		for _, node := range m.Net.Nodes() {
			witnessOf[node.ID] = -1
			if m.Configs[node.ID].BGP == nil {
				continue
			}
			c := cond(node.ID)
			if !f.Eval(c, nil) {
				continue
			}
			if mf := f.MinFailuresToViolate(c); mf < 1 || mf > k {
				continue
			}
			w, ok := core.Witness(f, c)
			if !ok {
				return nil, fmt.Errorf("oracle: %s @ %s: a finite verdict without a witness", p, node.Name)
			}
			if plant != nil {
				w = plant(p, node.Name, w)
			}
			out.Verdicts++
			key := fmt.Sprint(w)
			i, seen := index[key]
			if !seen {
				i = len(witnesses)
				index[key] = i
				witnesses = append(witnesses, w)
			}
			witnessOf[node.ID] = i
		}
		held := make([]func(topo.NodeID) bool, len(witnesses))
		for i, w := range witnesses {
			run, err := concrete.SimulateScenario(p, w)
			if err != nil {
				return nil, fmt.Errorf("oracle: %s under %v: %w", p, w, err)
			}
			c := verdict(p, run)
			held[i] = func(node topo.NodeID) bool { return run.Sim.F.Eval(c(node), nil) }
			out.Runs++
		}
		for id, i := range witnessOf {
			if i >= 0 && held[i](topo.NodeID(id)) {
				out.Refuted = append(out.Refuted, Refutation{Prefix: p, Router: m.Net.Node(topo.NodeID(id)).Name, Witness: witnesses[i]})
			}
		}
		sim.Reset()
	}
	return out, nil
}
