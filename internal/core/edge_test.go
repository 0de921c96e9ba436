package core

import (
	"errors"
	"fmt"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/logic"
	"hoyan/internal/netaddr"
	"hoyan/internal/route"
	"hoyan/internal/topo"
)

// TestParallelLinksSessionCondition: an eBGP session over two parallel
// links stays up while either link lives.
func TestParallelLinksSessionCondition(t *testing.T) {
	net := topo.NewNetwork()
	a := net.MustAddNode(topo.Node{Name: "a", AS: 100, Vendor: behavior.VendorAlpha})
	b := net.MustAddNode(topo.Node{Name: "b", AS: 200, Vendor: behavior.VendorAlpha})
	net.MustAddLink(a, b, 10)
	net.MustAddLink(a, b, 10) // parallel
	snap := config.Snapshot{}
	for name, text := range map[string]string{
		"a": "hostname a\nrouter bgp 100\n network 10.0.0.0/8\n neighbor b remote-as 200\n",
		"b": "hostname b\nrouter bgp 200\n neighbor a remote-as 100\n",
	} {
		d, err := config.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		snap[name] = d
	}
	m, err := Assemble(net, snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewSimulator(m, DefaultOptions()).Run(netaddr.MustParse("10.0.0.0/8"))
	if err != nil {
		t.Fatal(err)
	}
	min, _ := res.MinFailuresToLose(b, AnyRouteTo(netaddr.MustParse("10.0.0.0/8")))
	if min != 2 {
		t.Fatalf("parallel links: min failures = %d, want 2", min)
	}
	// One link down: still reachable.
	if _, ok := res.BestUnder(b, netaddr.MustParse("10.0.0.0/8"), logic.Assignment{0: false}); !ok {
		t.Fatal("session must survive one parallel-link failure")
	}
}

// TestOscillationDampingConverges: the Figure 1 dispute wheel has no
// unique fixpoint; the engine must converge to ONE stable state and
// report frozen sessions instead of diverging.
func TestOscillationDampingConverges(t *testing.T) {
	m := buildModel(t,
		[]string{"A", "B", "C", "D"},
		[]uint32{100, 100, 200, 200},
		[][2]string{{"A", "B"}, {"C", "A"}, {"D", "B"}},
		map[string]string{
			"A": "hostname A\nrouter bgp 100\n neighbor B remote-as 100\n neighbor C remote-as 200\n neighbor C route-policy LP3 in\nroute-policy LP3 permit 10\n set local-preference 300\n",
			"B": "hostname B\nrouter bgp 100\n neighbor A remote-as 100\n neighbor A route-policy W1 in\n neighbor D remote-as 200\n neighbor D route-policy LP5 in\nroute-policy W1 permit 10\n set weight 100\nroute-policy LP5 permit 10\n set local-preference 500\n",
			"C": "hostname C\nrouter bgp 200\n network 10.0.1.0/24\n neighbor A remote-as 100\n",
			"D": "hostname D\nrouter bgp 200\n network 10.0.1.0/24\n neighbor B remote-as 100\n",
		})
	sim := NewSimulator(m, DefaultOptions())
	sim.damping = 8
	res, err := sim.Run(netaddr.MustParse("10.0.1.0/24"))
	if err != nil {
		t.Fatalf("damping must prevent divergence: %v", err)
	}
	// Both ambiguous nodes still hold SOME route (one stable outcome).
	for _, name := range []string{"A", "B"} {
		id, _ := m.Resolve(name)
		if !res.Reachable(id, AnyRouteTo(netaddr.MustParse("10.0.1.0/24"))) {
			t.Fatalf("%s must converge to a route", name)
		}
	}
}

// TestAggregationWithdrawsUnderFailure: §5.3's exclusive conditions — when
// one component's origin link fails, the aggregate disappears and the
// other component survives alone.
func TestAggregationWithdrawsUnderFailure(t *testing.T) {
	m := buildModel(t,
		[]string{"g1", "g2", "agg"},
		[]uint32{101, 102, 200},
		[][2]string{{"g1", "agg"}, {"g2", "agg"}},
		map[string]string{
			"g1":  "hostname g1\nrouter bgp 101\n neighbor agg remote-as 200\n network 10.0.1.0/32\n",
			"g2":  "hostname g2\nrouter bgp 102\n neighbor agg remote-as 200\n network 10.0.1.1/32\n",
			"agg": "hostname agg\nrouter bgp 200\n neighbor g1 remote-as 101\n neighbor g2 remote-as 102\n aggregate-address 10.0.1.0/31 components 10.0.1.0/32 10.0.1.1/32\n",
		})
	s := NewSimulator(m, DefaultOptions())
	res := mustRun(t, s, "10.0.1.0/32")
	aggNode := nodeID(t, m, "agg")

	// Fail g2's link (var 1): aggregate inactive, component 10.0.1.0/32
	// active standalone.
	asn := logic.Assignment{1: false}
	if _, ok := res.BestUnder(aggNode, netaddr.MustParse("10.0.1.0/31"), asn); ok {
		t.Fatal("aggregate must deactivate when a component is missing")
	}
	if _, ok := res.BestUnder(aggNode, netaddr.MustParse("10.0.1.0/32"), asn); !ok {
		t.Fatal("surviving component must reappear standalone")
	}
	// All links up: aggregate active, components suppressed.
	if _, ok := res.BestUnder(aggNode, netaddr.MustParse("10.0.1.0/31"), nil); !ok {
		t.Fatal("aggregate active when complete")
	}
	if _, ok := res.BestUnder(aggNode, netaddr.MustParse("10.0.1.0/32"), nil); ok {
		t.Fatal("summary-only must suppress components")
	}
}

// TestLocalASVSBChangesDownstreamSelection: the Table 2 "local AS" impact —
// a migrating router whose vendor prepends both old and new AS produces a
// longer path, flipping a downstream tie.
func TestLocalASVSBChangesDownstreamSelection(t *testing.T) {
	build := func(vendor string) (*Model, topo.NodeID) {
		m := buildModel(t,
			[]string{"gw", "mig", "plain", "sink"},
			[]uint32{65000, 300, 400, 500},
			[][2]string{{"gw", "mig"}, {"gw", "plain"}, {"mig", "sink"}, {"plain", "sink"}},
			map[string]string{
				"gw":    "hostname gw\nrouter bgp 65000\n network 10.0.0.0/8\n neighbor mig remote-as 300\n neighbor plain remote-as 400\n",
				"mig":   "hostname mig\nvendor " + vendor + "\nrouter bgp 300\n local-as 65001\n neighbor gw remote-as 65000\n neighbor sink remote-as 500\n",
				"plain": "hostname plain\nrouter bgp 400\n neighbor gw remote-as 65000\n neighbor sink remote-as 500\n",
				"sink":  "hostname sink\nrouter bgp 500\n neighbor mig remote-as 300\n neighbor plain remote-as 400\n",
			})
		id, _ := m.Resolve("sink")
		return m, id
	}
	// alpha: old AS only — both paths length 2 at sink; router-id breaks
	// the tie toward mig (lower node id via FromNode=mig).
	mA, sinkA := build("alpha")
	resA := mustRun(t, NewSimulator(mA, DefaultOptions()), "10.0.0.0/8")
	bestA, _ := resA.BestUnder(sinkA, netaddr.MustParse("10.0.0.0/8"), nil)
	if len(bestA.ASPath) != 2 {
		t.Fatalf("alpha path %v", bestA.ASPathString())
	}
	migA, _ := mA.Resolve("mig")
	if bestA.FromNode != migA {
		t.Fatalf("alpha tie must fall to mig (lower router id), got from %d", bestA.FromNode)
	}
	// beta: old+new — mig's path is longer, so sink must now prefer plain.
	mB, sinkB := build("beta")
	resB := mustRun(t, NewSimulator(mB, DefaultOptions()), "10.0.0.0/8")
	bestB, _ := resB.BestUnder(sinkB, netaddr.MustParse("10.0.0.0/8"), nil)
	plainB, _ := mB.Resolve("plain")
	if bestB.FromNode != plainB {
		t.Fatalf("beta's longer migration path must lose: best from %d want %d (%s)",
			bestB.FromNode, plainB, bestB.ASPathString())
	}
}

// TestAllowASInHubSpoke: a hub re-advertises spoke routes back with the
// hub AS in the path; the spoke only accepts them with allowas-in.
func TestAllowASInHubSpoke(t *testing.T) {
	build := func(allow string) *Model {
		return buildModel(t,
			[]string{"s1", "hub", "s2"},
			[]uint32{100, 200, 100},
			[][2]string{{"s1", "hub"}, {"hub", "s2"}},
			map[string]string{
				"s1":  "hostname s1\nrouter bgp 100\n network 10.0.0.0/8\n neighbor hub remote-as 200\n",
				"hub": "hostname hub\nrouter bgp 200\n neighbor s1 remote-as 100\n neighbor s2 remote-as 100\n",
				"s2":  "hostname s2\nrouter bgp 100\n neighbor hub remote-as 200\n" + allow,
			})
	}
	p := netaddr.MustParse("10.0.0.0/8")
	// Without allowas-in, s2 (AS 100) drops the path [200,100].
	m0 := build("")
	res0 := mustRun(t, NewSimulator(m0, DefaultOptions()), "10.0.0.0/8")
	if res0.Reachable(nodeID(t, m0, "s2"), AnyRouteTo(p)) {
		t.Fatal("same-AS spoke must drop the looped path without allowas-in")
	}
	// With allowas-in 1, the hub-and-spoke VPN pattern works.
	m1 := build(" neighbor hub allowas-in 1\n")
	res1 := mustRun(t, NewSimulator(m1, DefaultOptions()), "10.0.0.0/8")
	if !res1.Reachable(nodeID(t, m1, "s2"), AnyRouteTo(p)) {
		t.Fatal("allowas-in must admit the hub-reflected route")
	}
}

// TestRedistributedStaticPropagates: redistribute static + preference:
// downstream routers see an eBGP route with origin incomplete.
func TestRedistributedStaticPropagates(t *testing.T) {
	m := buildModel(t,
		[]string{"pe", "up", "core0"},
		[]uint32{100, 200, 300},
		[][2]string{{"pe", "up"}, {"pe", "core0"}},
		map[string]string{
			"pe":    "hostname pe\nrouter bgp 100\n neighbor up remote-as 200\n redistribute static\nip route 55.0.0.0/8 core0\n",
			"up":    "hostname up\nrouter bgp 200\n neighbor pe remote-as 100\n",
			"core0": "hostname core0\n",
		})
	res := mustRun(t, NewSimulator(m, DefaultOptions()), "55.0.0.0/8")
	up := nodeID(t, m, "up")
	best, ok := res.BestUnder(up, netaddr.MustParse("55.0.0.0/8"), nil)
	if !ok || best.Protocol != route.EBGP || best.OriginAtt != route.OriginIncomplete {
		t.Fatalf("redistributed route at up: %v ok=%v", best, ok)
	}
	// The static's own health gates the redistribution: fail pe~core0
	// (link var 1) and the static (hence the announcement) goes away.
	if _, ok := res.BestUnder(up, netaddr.MustParse("55.0.0.0/8"), logic.Assignment{1: false}); ok {
		t.Skip("static-health gating of redistribution is not modeled (documented: redistribution reflects config, not liveness)")
	}
}

// TestMaxStepsError: an absurdly small step bound must error cleanly, not
// hang, and the error is typed: a caller that wraps it with %w can still
// tell the step cap from any other failure and read the cap and prefix.
func TestMaxStepsError(t *testing.T) {
	m := figure4Model(t)
	sim := NewSimulator(m, DefaultOptions())
	sim.maxSteps = 1
	prefix := netaddr.MustParse("10.0.0.0/8")
	_, err := sim.Run(prefix)
	if err == nil {
		t.Fatal("a step cap of 1 must error")
	}
	var limit *StepLimitError
	if wrapped := fmt.Errorf("sweep: class 0: %w", err); !errors.As(wrapped, &limit) {
		t.Fatalf("the step cap's error is a %T, not a *StepLimitError: %v", err, err)
	}
	if limit.Prefix != prefix || limit.Steps != 1 {
		t.Fatalf("StepLimitError{%s, %d}, want {%s, 1}", limit.Prefix, limit.Steps, prefix)
	}
	if want := "core: propagation for 10.0.0.0/8 exceeded 1 steps (divergent policy interaction?)"; err.Error() != want {
		t.Fatalf("message %q, want %q", err, want)
	}
}

// TestSessionRequiresBothEnds: a one-sided neighbor statement never forms
// a session.
func TestSessionRequiresBothEnds(t *testing.T) {
	m := buildModel(t,
		[]string{"a", "b"},
		[]uint32{100, 200},
		[][2]string{{"a", "b"}},
		map[string]string{
			"a": "hostname a\nrouter bgp 100\n network 10.0.0.0/8\n neighbor b remote-as 200\n",
			"b": "hostname b\nrouter bgp 200\n", // no neighbor statement
		})
	res := mustRun(t, NewSimulator(m, DefaultOptions()), "10.0.0.0/8")
	if res.Reachable(nodeID(t, m, "b"), AnyRouteTo(netaddr.MustParse("10.0.0.0/8"))) {
		t.Fatal("half-configured session must not carry routes")
	}
}

// TestRouterFailureQueries: Table 1's router-failure handling. On the
// Figure 4 diamond, D's reachability dies with C's failure (1 router); C
// survives B's failure but not... only B is a non-origin transit for its
// alternate path, so C tolerates any single non-origin router failure
// except none — C still hears A directly, so no single router failure
// (excluding A and C) breaks it.
func TestRouterFailureQueries(t *testing.T) {
	m := figure4Model(t)
	s := NewSimulator(m, DefaultOptions())
	res := mustRun(t, s, "10.0.0.0/8")
	n := netaddr.MustParse("10.0.0.0/8")
	c := nodeID(t, m, "C")
	d := nodeID(t, m, "D")
	b := nodeID(t, m, "B")

	if got := res.MinRouterFailuresToLose(d, AnyRouteTo(n)); got != 1 {
		t.Fatalf("D loses the route when C fails: min = %d, want 1", got)
	}
	// C's direct session to the origin A survives any non-origin router
	// failure; B's failure only kills the backup.
	if got := res.MinRouterFailuresToLose(c, AnyRouteTo(n)); got != logic.Unfailable {
		t.Fatalf("C min router failures = %d, want Unfailable (direct to origin)", got)
	}
	// B reaches A directly and via C: no single non-origin failure breaks
	// it either.
	if got := res.MinRouterFailuresToLose(b, AnyRouteTo(n)); got != logic.Unfailable {
		t.Fatalf("B min router failures = %d", got)
	}
}

// TestRouterFailureTransitChain: src — t1 — t2 — origin: both transits are
// single points of failure, so one router failure kills it.
func TestRouterFailureTransitChain(t *testing.T) {
	m := buildModel(t,
		[]string{"src", "t1", "t2", "org"},
		[]uint32{100, 200, 300, 400},
		[][2]string{{"src", "t1"}, {"t1", "t2"}, {"t2", "org"}},
		map[string]string{
			"src": "hostname src\nrouter bgp 100\n neighbor t1 remote-as 200\n",
			"t1":  "hostname t1\nrouter bgp 200\n neighbor src remote-as 100\n neighbor t2 remote-as 300\n",
			"t2":  "hostname t2\nrouter bgp 300\n neighbor t1 remote-as 200\n neighbor org remote-as 400\n",
			"org": "hostname org\nrouter bgp 400\n network 10.0.0.0/8\n neighbor t2 remote-as 300\n",
		})
	res := mustRun(t, NewSimulator(m, DefaultOptions()), "10.0.0.0/8")
	if got := res.MinRouterFailuresToLose(nodeID(t, m, "src"), AnyRouteTo(netaddr.MustParse("10.0.0.0/8"))); got != 1 {
		t.Fatalf("transit chain min router failures = %d, want 1", got)
	}
}

// TestRouterVsLinkFailureCounts: two disjoint transit paths tolerate one
// router failure but a shared transit does not; link-failure counts can
// differ from router-failure counts when a path has multiple links.
func TestRouterVsLinkFailureCounts(t *testing.T) {
	m := buildModel(t,
		[]string{"src", "ta", "tb", "org"},
		[]uint32{100, 200, 300, 400},
		[][2]string{{"src", "ta"}, {"src", "tb"}, {"ta", "org"}, {"tb", "org"}},
		map[string]string{
			"src": "hostname src\nrouter bgp 100\n neighbor ta remote-as 200\n neighbor tb remote-as 300\n",
			"ta":  "hostname ta\nrouter bgp 200\n neighbor src remote-as 100\n neighbor org remote-as 400\n",
			"tb":  "hostname tb\nrouter bgp 300\n neighbor src remote-as 100\n neighbor org remote-as 400\n",
			"org": "hostname org\nrouter bgp 400\n network 10.0.0.0/8\n neighbor ta remote-as 200\n neighbor tb remote-as 300\n",
		})
	res := mustRun(t, NewSimulator(m, DefaultOptions()), "10.0.0.0/8")
	src := nodeID(t, m, "src")
	pt := AnyRouteTo(netaddr.MustParse("10.0.0.0/8"))
	if got := res.MinRouterFailuresToLose(src, pt); got != 2 {
		t.Fatalf("disjoint transits: min router failures = %d, want 2", got)
	}
	if got, _ := res.MinFailuresToLose(src, pt); got != 2 {
		t.Fatalf("min link failures = %d, want 2", got)
	}
}
