package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/netaddr"
	"hoyan/internal/route"
	"hoyan/internal/topo"
)

// concreteSim simulates the prefix on a copy of the topology without the
// failed links and returns each node's best route.
func concreteSim(t *testing.T, net *topo.Network, snap config.Snapshot, prefix netaddr.Prefix, failed topo.FailureScenario) map[topo.NodeID]route.Route {
	t.Helper()
	res := concreteRun(t, net, snap, prefix, failed)
	out := map[topo.NodeID]route.Route{}
	for _, n := range net.Nodes() {
		if best, ok := res.BestUnder(n.ID, prefix, nil); ok {
			out[n.ID] = best
		}
	}
	return out
}

// concreteRun simulates the prefix at K=0 on a copy of the topology
// without the failed links.
func concreteRun(t *testing.T, net *topo.Network, snap config.Snapshot, prefix netaddr.Prefix, failed topo.FailureScenario) *Result {
	t.Helper()
	drop := map[topo.LinkID]bool{}
	for _, l := range failed {
		drop[l] = true
	}
	reduced := topo.NewNetwork()
	for _, n := range net.Nodes() {
		reduced.MustAddNode(*n)
	}
	for _, l := range net.Links() {
		if !drop[l.ID] {
			reduced.MustAddLink(l.A, l.B, l.Weight)
		}
	}
	m, err := Assemble(reduced, snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.K = 0
	res, err := NewSimulator(m, opts).Run(prefix)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// randomEBGPNetwork builds a random connected eBGP-only network of 6-8
// routers with distinct ASes, one announcer, and a few random policies
// (local-pref rewrites, prefix filters on non-critical sessions).
func randomEBGPNetwork(t *testing.T, seed int64) (*topo.Network, config.Snapshot) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(3)
	net := topo.NewNetwork()
	for i := 0; i < n; i++ {
		net.MustAddNode(topo.Node{
			Name:   fmt.Sprintf("r%d", i),
			AS:     uint32(100 * (i + 1)),
			Vendor: behavior.VendorAlpha,
		})
	}
	// Spanning tree + chords for redundancy.
	adj := map[[2]int]bool{}
	addLink := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if adj[[2]int{a, b}] {
			return
		}
		adj[[2]int{a, b}] = true
		net.MustAddLink(topo.NodeID(a), topo.NodeID(b), 10)
	}
	for i := 1; i < n; i++ {
		addLink(rng.Intn(i), i)
	}
	for c := 0; c < 3; c++ {
		addLink(rng.Intn(n), rng.Intn(n))
	}

	snap := config.Snapshot{}
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("hostname r%d\nvendor alpha\nrouter bgp %d\n", i, 100*(i+1))
		for _, ad := range net.Neighbors(topo.NodeID(i)) {
			peer := net.Node(ad.Peer)
			if hasNeighborLine(text, peer.Name) {
				continue
			}
			text += fmt.Sprintf(" neighbor %s remote-as %d\n", peer.Name, peer.AS)
		}
		if i == 0 {
			text += " network 10.0.0.0/8\n"
		}
		// Random local-pref rewrite on one ingress session.
		if rng.Intn(2) == 0 {
			ads := net.Neighbors(topo.NodeID(i))
			peer := net.Node(ads[rng.Intn(len(ads))].Peer)
			text += fmt.Sprintf(" neighbor %s route-policy LP in\n", peer.Name)
			text += fmt.Sprintf("route-policy LP permit 10\n set local-preference %d\n", 100+10*rng.Intn(5))
		}
		d, err := config.Parse(text)
		if err != nil {
			t.Fatalf("seed config: %v\n%s", err, text)
		}
		snap[d.Hostname] = d
	}
	return net, snap
}

func hasNeighborLine(text, peer string) bool {
	return strings.Contains(text, " neighbor "+peer+" remote-as")
}

// TestWitnessMinimality: every failure witness the verifier reports must
// (a) actually break reachability when simulated concretely, and (b) be
// minimal — removing any single link from the witness restores
// reachability.
func TestWitnessMinimality(t *testing.T) {
	for seed := int64(20); seed < 28; seed++ {
		net, snap := randomEBGPNetwork(t, seed)
		m, err := Assemble(net, snap, behavior.TrueProfiles())
		if err != nil {
			t.Fatal(err)
		}
		prefix := netaddr.MustParse("10.0.0.0/8")
		opts := DefaultOptions()
		opts.K = 3
		res, err := NewSimulator(m, opts).Run(prefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range net.Nodes() {
			pt := AnyRouteTo(prefix)
			if !res.Reachable(node.ID, pt) {
				continue
			}
			min, _ := res.MinFailuresToLose(node.ID, pt)
			if min > opts.K {
				continue
			}
			fs, ok := res.WitnessFailure(node.ID, pt)
			if !ok {
				t.Fatalf("seed %d node %s: breakable (min=%d) but no witness", seed, node.Name, min)
			}
			if len(fs) != min {
				t.Fatalf("seed %d node %s: witness size %d != min %d", seed, node.Name, len(fs), min)
			}
			// (a) The witness breaks reachability in a concrete re-simulation.
			concrete := concreteSim(t, net, snap, prefix, fs)
			if _, still := concrete[node.ID]; still {
				t.Fatalf("seed %d node %s: witness %v does not break reachability", seed, node.Name, fs)
			}
			// (b) Minimality: dropping any one link restores it.
			for drop := range fs {
				sub := append(topo.FailureScenario{}, fs[:drop]...)
				sub = append(sub, fs[drop+1:]...)
				concrete := concreteSim(t, net, snap, prefix, sub)
				if _, restored := concrete[node.ID]; !restored {
					t.Fatalf("seed %d node %s: witness %v not minimal (sub-scenario %v still breaks)",
						seed, node.Name, fs, sub)
				}
			}
		}
	}
}

// TestSoundnessIBGPOverISIS extends the keystone cross-validation to the
// hard case: iBGP sessions whose existence conditions come from IS-IS
// reachability. A conditioned simulation must agree with concrete
// re-simulation of every ≤2-failure scenario on randomized single-AS
// backbones with an external announcer.
func TestSoundnessIBGPOverISIS(t *testing.T) {
	for seed := int64(100); seed < 108; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			net, snap := randomIBGPNetwork(t, seed)
			m, err := Assemble(net, snap, behavior.TrueProfiles())
			if err != nil {
				t.Fatal(err)
			}
			prefix := netaddr.MustParse("77.0.0.0/8")
			opts := DefaultOptions()
			opts.K = 2
			res, err := NewSimulator(m, opts).Run(prefix)
			if err != nil {
				t.Fatal(err)
			}
			for kk := 0; kk <= 2; kk++ {
				net.EnumerateFailures(kk, func(fs topo.FailureScenario) bool {
					concrete := concreteSim(t, net, snap, prefix, fs)
					asn := fs.Assignment()
					for _, node := range net.Nodes() {
						want, wantOK := concrete[node.ID]
						got, gotOK := res.BestUnder(node.ID, prefix, asn)
						if wantOK != gotOK {
							t.Fatalf("scenario %v node %s: concrete present=%v conditioned present=%v",
								fs, node.Name, wantOK, gotOK)
						}
						if wantOK && (want.Protocol != got.Protocol || want.ASPathString() != got.ASPathString()) {
							t.Fatalf("scenario %v node %s: concrete %v vs conditioned %v",
								fs, node.Name, want, got)
						}
					}
					return true
				})
			}
		})
	}
}

// randomIBGPNetwork: one external announcer eBGP-attached to an edge of a
// random 5-6 node single-AS IS-IS backbone with one route reflector.
func randomIBGPNetwork(t *testing.T, seed int64) (*topo.Network, config.Snapshot) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(2)
	net := topo.NewNetwork()
	net.MustAddNode(topo.Node{Name: "ext", AS: 65100, Vendor: behavior.VendorAlpha})
	for i := 0; i < n; i++ {
		net.MustAddNode(topo.Node{
			Name: fmt.Sprintf("w%d", i), AS: 64500,
			Vendor: behavior.VendorAlpha, Region: "r0",
		})
	}
	// ext attaches to w0; backbone spanning tree + chords.
	net.MustAddLink(0, 1, 10)
	adj := map[[2]int]bool{}
	addLink := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if adj[[2]int{a, b}] {
			return
		}
		adj[[2]int{a, b}] = true
		net.MustAddLink(topo.NodeID(a), topo.NodeID(b), uint32(5+rng.Intn(20)))
	}
	for i := 2; i <= n; i++ {
		addLink(1+rng.Intn(i-1), i)
	}
	for c := 0; c < 2; c++ {
		addLink(1+rng.Intn(n), 1+rng.Intn(n))
	}

	isis := "router isis\n level 2\n"
	snap := config.Snapshot{}
	mk := func(name, text string) {
		d, err := config.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, text)
		}
		snap[name] = d
	}
	mk("ext", "hostname ext\nrouter bgp 65100\n network 77.0.0.0/8\n neighbor w0 remote-as 64500\n")
	// w1 is the route reflector for all other backbone routers.
	rrText := "hostname w1\nrouter bgp 64500\n"
	for i := 0; i < n; i++ {
		if i == 1 {
			continue
		}
		rrText += fmt.Sprintf(" neighbor w%d remote-as 64500\n neighbor w%d route-reflector-client\n", i, i)
	}
	rrText += isis
	mk("w1", rrText)
	for i := 0; i < n; i++ {
		if i == 1 {
			continue
		}
		text := fmt.Sprintf("hostname w%d\nrouter bgp 64500\n neighbor w1 remote-as 64500\n", i)
		if i == 0 {
			text += " neighbor ext remote-as 65100\n neighbor w1 next-hop-self\n"
		}
		text += isis
		mk(fmt.Sprintf("w%d", i), text)
	}
	return net, snap
}
