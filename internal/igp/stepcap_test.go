package igp_test

import (
	"strings"
	"testing"

	"hoyan"
	"hoyan/internal/core"
	"hoyan/internal/igp"
	"hoyan/internal/netaddr"
)

// stepCapNet is an iBGP session over IS-IS: pe-west announces 10.0.0.0/8
// to pe-east across p-core, in two regions so a region pass is defined.
func stepCapNet(t *testing.T) *hoyan.Network {
	t.Helper()
	n := hoyan.NewNetwork()
	n.AddRouter(hoyan.Router{Name: "pe-west", AS: 64500, Vendor: "alpha", Region: "west"})
	n.AddRouter(hoyan.Router{Name: "p-core", AS: 64500, Vendor: "alpha", Region: "west"})
	n.AddRouter(hoyan.Router{Name: "pe-east", AS: 64500, Vendor: "alpha", Region: "east"})
	n.AddLink("pe-west", "p-core", 10)
	n.AddLink("p-core", "pe-east", 10)
	const isis = "router isis\n level 2\n"
	n.SetConfig("pe-west", "router bgp 64500\n network 10.0.0.0/8\n neighbor pe-east remote-as 64500\n"+isis)
	n.SetConfig("p-core", isis)
	n.SetConfig("pe-east", "router bgp 64500\n neighbor pe-west remote-as 64500\n"+isis)
	return n
}

// wantCut fails unless err is the memo's refusal: it names the session's
// destinations and the step cap.
func wantCut(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "step cap") ||
		!strings.Contains(err.Error(), "pe-west") || !strings.Contains(err.Error(), "pe-east") {
		t.Fatalf("%s: error %v, want the step cap's naming pe-west and pe-east", what, err)
	}
}

// TestStepCapRefusesEverySimulator: on a network whose IS-IS fixpoint hits
// the step cap, no simulator answers from a cut-off RIB. The Verifier's
// queries, and every pass of a simulator derived from a Shared, fail with
// the Shared's error, which names the destinations the cap cut off.
func TestStepCapRefusesEverySimulator(t *testing.T) {
	const prefix = "10.0.0.0/8"
	p := netaddr.MustParse(prefix)
	v, err := stepCapNet(t).Verifier(hoyan.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := v.RouteReach(prefix, "pe-east"); err != nil || !rep.Reachable {
		t.Fatalf("uncapped: pe-east reachable %v, error %v; want the route over the iBGP session", rep.Reachable, err)
	}

	defer igp.SetMaxStepsFactor(0)() // no step at all: every destination is cut off
	v, err = stepCapNet(t).Verifier(hoyan.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = v.RouteReach(prefix, "pe-east")
	wantCut(t, "Verifier.RouteReach", err)
	_, err = v.PacketReach(prefix, "pe-east")
	wantCut(t, "Verifier.PacketReach", err)
	_, err = v.CheckRacing(prefix)
	wantCut(t, "Verifier.CheckRacing", err)

	m := v.Model()
	opts := core.DefaultOptions()
	opts.K = 1
	sh := core.NewShared(m, opts)
	wantCut(t, "Shared.Err", sh.Err())
	sim := sh.NewSimulator()
	_, err = sim.Run(p)
	wantCut(t, "Simulator.Run", err)
	_, err = sim.SessionList()
	wantCut(t, "Simulator.SessionList", err)
	pt, err := m.Partition()
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sim.RunRegion(p, pt, pt.RegionIndex("west"), nil)
	wantCut(t, "Simulator.RunRegion", err)
	sim.Reset()
	_, err = sim.Run(p)
	wantCut(t, "Simulator.Run after a Reset", err)
	_, err = core.NewSimulator(m, opts).Run(p)
	wantCut(t, "core.NewSimulator", err)
}
