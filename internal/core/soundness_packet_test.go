package core_test

import (
	"fmt"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dataplane"
	"hoyan/internal/logic"
	"hoyan/internal/netaddr"
	"hoyan/internal/topo"
)

// TestSoundnessAgainstConcreteEnumeration is the keystone correctness
// check of the whole "global simulation & local formal modeling" design:
// for random small networks, ONE conditioned simulation must agree with a
// concrete re-simulation of EVERY ≤k-failure scenario — same best route at
// every node under every scenario, and the same packet verdict: a packet
// from every node to the prefix reaches an announcer exactly when the
// concrete data plane delivers it. This is exactly the equivalence that
// lets Hoyan replace Batfish's C(n,k) enumeration. The packet half also
// runs on the iBGP-over-IS-IS backbones of TestSoundnessIBGPOverISIS,
// whose next hops resolve through IS-IS (igp.Engine.NextHops).
func TestSoundnessAgainstConcreteEnumeration(t *testing.T) {
	seeds := int64(12)
	if !testing.Short() {
		seeds = 24
	}
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			net, snap := core.RandomEBGPNetwork(t, seed)
			enumerate(t, net, snap, netaddr.MustParse("10.0.0.0/8"), true)
		})
	}
	for seed := int64(100); seed < 108; seed++ {
		t.Run(fmt.Sprintf("ibgp-seed%d", seed), func(t *testing.T) {
			net, snap := core.RandomIBGPNetwork(t, seed)
			enumerate(t, net, snap, netaddr.MustParse("77.0.0.0/8"), false)
		})
	}
}

// enumerate simulates the prefix once at K=2 and compares it with a
// concrete re-simulation (links removed) of every scenario of at most 2
// failures: the packet verdict of every node and, when routes is set,
// every node's best route.
func enumerate(t *testing.T, net *topo.Network, snap config.Snapshot, prefix netaddr.Prefix, routes bool) {
	t.Helper()
	m, err := core.Assemble(net, snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.K = 2
	res, err := core.NewSimulator(m, opts).Run(prefix)
	if err != nil {
		t.Fatal(err)
	}
	packets := packetConds(res, prefix)
	for kk := 0; kk <= 2; kk++ {
		net.EnumerateFailures(kk, func(fs topo.FailureScenario) bool {
			concrete := core.ConcreteRun(t, net, snap, prefix, fs)
			delivered := packetConds(concrete, prefix)
			asn := fs.Assignment()
			for _, node := range net.Nodes() {
				if want, got := concrete.Sim.F.Eval(delivered[node.ID], nil), res.Sim.F.Eval(packets[node.ID], asn); want != got {
					t.Fatalf("scenario %v node %s: concrete packet delivered=%v conditioned=%v", fs, node.Name, want, got)
				}
				if !routes {
					continue
				}
				want, wantOK := concrete.BestUnder(node.ID, prefix, nil)
				got, gotOK := res.BestUnder(node.ID, prefix, asn)
				if wantOK != gotOK {
					t.Fatalf("scenario %v node %s: concrete present=%v conditioned present=%v",
						fs, node.Name, wantOK, gotOK)
				}
				// Compare the selection-relevant core: origin and AS
				// path (next hops may be expressed differently across the
				// two runs when multiple equal-cost links exist).
				if wantOK && (want.OriginNode != got.OriginNode || want.ASPathString() != got.ASPathString()) {
					t.Fatalf("scenario %v node %s: concrete %v vs conditioned %v", fs, node.Name, want, got)
				}
			}
			return true
		})
	}
}

// packetConds builds the run's data plane and returns, per node, the
// condition under which a packet from it to the prefix's first address
// reaches some announcer (hoyan.Verifier.PacketReach's condition).
func packetConds(res *core.Result, prefix netaddr.Prefix) []logic.F {
	fib := dataplane.Build(res)
	anns := res.Sim.M.AnnouncersOf(prefix)
	out := make([]logic.F, res.Sim.M.Net.NumNodes())
	for n := range out {
		out[n] = fib.ReachAny(topo.NodeID(n), 0, prefix.Addr+1, anns)
	}
	return out
}
