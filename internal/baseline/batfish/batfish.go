// Package batfish reimplements the algorithmic core of simulation-based
// configuration verification (Batfish, §2(i)): simulate the control plane
// to convergence under ONE concrete environment and check the resulting
// data plane. Verifying k-failure tolerance therefore requires enumerating
// all C(n,0)+…+C(n,k) failure scenarios and re-simulating each — the
// scaling wall Tables 4 and 5 measure.
//
// Each per-environment simulation reuses the same propagation engine as
// Hoyan but with k=0 (no conditions to track) on a copy of the topology
// with the failed links removed, which is exactly the work a
// simulate-one-snapshot verifier performs.
package batfish

import (
	"errors"
	"fmt"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dataplane"
	"hoyan/internal/netaddr"
	"hoyan/internal/topo"
)

// Verifier holds the inputs shared across scenario simulations.
type Verifier struct {
	Net  *topo.Network
	Snap config.Snapshot
	Reg  *behavior.Registry
	// Deadline bounds a check's wall time (zero = none); exceeding it
	// returns ErrTimeout, emulating the >24h entries of Tables 4/5.
	Deadline time.Duration
}

// ErrTimeout reports an exhausted time budget.
var ErrTimeout = errors.New("batfish: time budget exhausted")

// New builds a verifier.
func New(net *topo.Network, snap config.Snapshot, reg *behavior.Registry) *Verifier {
	return &Verifier{Net: net, Snap: snap, Reg: reg}
}

// SimulateScenario runs one converged simulation under a concrete failure
// scenario, with all uncertainty handling off (K=0: one environment, no
// alternatives beyond the converged best paths), on v.Net.Without(failed):
// node IDs are v.Net's, links are renumbered, which is irrelevant where no
// conditions are tracked.
func (v *Verifier) SimulateScenario(prefix netaddr.Prefix, failed topo.FailureScenario) (*core.Result, error) {
	m, err := core.Assemble(v.Net.Without(failed), v.Snap, v.Reg)
	if err != nil {
		return nil, err
	}
	o := core.DefaultOptions()
	o.K = 0
	return core.NewSimulator(m, o).Run(prefix)
}

// Report summarizes a k-failure check.
type Report struct {
	// Tolerant is true when the property held in every scenario.
	Tolerant bool
	// Witness is a violating scenario when not tolerant.
	Witness topo.FailureScenario
	// Scenarios is how many environments were simulated — the C(n,k) cost.
	Scenarios int
}

// CheckRouteReach verifies that `target` holds a route to the prefix under
// every failure scenario of at most k links.
func (v *Verifier) CheckRouteReach(prefix netaddr.Prefix, target string, k int) (Report, error) {
	node, ok := v.Net.NodeByName(target)
	if !ok {
		return Report{}, fmt.Errorf("batfish: unknown node %q", target)
	}
	return v.check(prefix, k, func(res *core.Result) bool {
		return res.Reachable(node.ID, core.AnyRouteTo(prefix))
	})
}

// CheckPacketReach verifies packet delivery from src to the prefix's
// gateway under every failure scenario of at most k links.
func (v *Verifier) CheckPacketReach(prefix netaddr.Prefix, src, gateway string, k int) (Report, error) {
	s, ok1 := v.Net.NodeByName(src)
	g, ok2 := v.Net.NodeByName(gateway)
	if !ok1 || !ok2 {
		return Report{}, fmt.Errorf("batfish: unknown node %q/%q", src, gateway)
	}
	return v.check(prefix, k, func(res *core.Result) bool {
		return dataplane.Build(res).Reachable(s.ID, 0, prefix.Addr+1, g.ID)
	})
}

// check simulates every scenario of at most k failed links and evaluates
// prop on each; node IDs are v.Net's in every scenario (Without).
func (v *Verifier) check(prefix netaddr.Prefix, k int, prop func(*core.Result) bool) (Report, error) {
	rep := Report{Tolerant: true}
	start := time.Now()
	var firstErr error
	for kk := 0; kk <= k && rep.Tolerant && firstErr == nil; kk++ {
		v.Net.EnumerateFailures(kk, func(fs topo.FailureScenario) bool {
			if v.Deadline > 0 && time.Since(start) > v.Deadline {
				firstErr = ErrTimeout
				return false
			}
			rep.Scenarios++
			res, err := v.SimulateScenario(prefix, fs)
			if err != nil {
				firstErr = err
				return false
			}
			if !prop(res) {
				rep.Tolerant = false
				rep.Witness = fs
				return false
			}
			return true
		})
	}
	return rep, firstErr
}
