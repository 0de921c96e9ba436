package hoyan

import (
	"strings"
	"testing"
)

// figure4Net builds the paper's Figure 4 network through the public API.
func figure4Net(t testing.TB) *Network {
	t.Helper()
	n := NewNetwork()
	n.AddRouter(Router{Name: "A", AS: 100, Vendor: "alpha"})
	n.AddRouter(Router{Name: "B", AS: 200, Vendor: "alpha"})
	n.AddRouter(Router{Name: "C", AS: 300, Vendor: "alpha"})
	n.AddRouter(Router{Name: "D", AS: 400, Vendor: "alpha"})
	n.AddLink("A", "C", 10)
	n.AddLink("A", "B", 10)
	n.AddLink("B", "C", 10)
	n.AddLink("C", "D", 10)
	n.SetConfig("A", "hostname A\nrouter bgp 100\n network 10.0.0.0/8\n neighbor B remote-as 200\n neighbor C remote-as 300\n")
	n.SetConfig("B", "hostname B\nrouter bgp 200\n neighbor A remote-as 100\n neighbor C remote-as 300\n")
	n.SetConfig("C", "hostname C\nrouter bgp 300\n neighbor A remote-as 100\n neighbor B remote-as 200\n neighbor D remote-as 400\n")
	n.SetConfig("D", "hostname D\nrouter bgp 400\n neighbor C remote-as 300\n")
	return n
}

func TestQuickstartRouteReach(t *testing.T) {
	n := figure4Net(t)
	v, err := n.Verifier(Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.RouteReach("10.0.0.0/8", "D")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reachable || rep.MinFailures != 1 || rep.Tolerant {
		t.Fatalf("report %+v", rep)
	}
	if len(rep.Witness) != 1 || rep.Witness[0] != "C~D" {
		t.Fatalf("witness %v", rep.Witness)
	}
	if rep.FormulaLen == 0 {
		t.Fatal("formula length must be reported")
	}
	repC, _ := v.RouteReach("10.0.0.0/8", "C")
	if repC.MinFailures != 2 {
		t.Fatalf("C min failures %d", repC.MinFailures)
	}
}

func TestPacketReach(t *testing.T) {
	n := figure4Net(t)
	v, err := n.Verifier(Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.PacketReach("10.0.0.0/8", "D")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reachable || rep.MinFailures != 1 {
		t.Fatalf("packet report %+v", rep)
	}
	if _, err := v.PacketReach("99.0.0.0/8", "D"); err == nil {
		t.Fatal("unannounced prefix must error")
	}
}

// TestPacketReachAnyGateway: examples/networks/two-gateways announces
// 10/8 at gw-a and gw-b, and src is linked to gw-b alone. Reaching any
// gateway counts, so the first announcer being out of reach must not
// make the prefix unreachable. /v1/packet and `hoyan packet` ask the
// same function (their tests load the same directory).
func TestPacketReachAnyGateway(t *testing.T) {
	n, err := LoadDirectory("examples/networks/two-gateways")
	if err != nil {
		t.Fatal(err)
	}
	v, err := n.Verifier(Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.PacketReach("10.0.0.0/8", "src")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reachable || rep.MinFailures != 1 {
		t.Fatalf("src reaches gw-b over one link: %+v", rep)
	}
}

func TestVerifierInputErrors(t *testing.T) {
	n := NewNetwork()
	n.AddRouter(Router{Name: "A"})
	n.AddRouter(Router{Name: "A"}) // duplicate
	if _, err := n.Verifier(Options{}); err == nil {
		t.Fatal("duplicate router must surface at Verifier()")
	}
	n2 := NewNetwork()
	n2.AddLink("x", "y", 1)
	if _, err := n2.Verifier(Options{}); err == nil {
		t.Fatal("dangling link must surface")
	}
	n3 := NewNetwork()
	n3.AddRouter(Router{Name: "A"})
	n3.SetConfig("A", "garbage")
	if _, err := n3.Verifier(Options{}); err == nil {
		t.Fatal("bad config must surface")
	}
	n4 := figure4Net(t)
	v, _ := n4.Verifier(Options{})
	if _, err := v.RouteReach("10.0.0.0/8", "nope"); err == nil {
		t.Fatal("unknown router")
	}
	if _, err := v.RouteReach("bad prefix", "A"); err == nil {
		t.Fatal("bad prefix")
	}
}

func TestApplyUpdateWorkflow(t *testing.T) {
	n := figure4Net(t)
	// What-if: propose a change on a clone, verify, compare.
	target := n.Clone()
	if err := target.ApplyUpdate("C", "route-policy BLOCK deny 10", "router bgp 300", " neighbor D route-policy BLOCK out"); err != nil {
		t.Fatal(err)
	}
	v0, _ := n.Verifier(Options{})
	v1, err := target.Verifier(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := v0.RouteReach("10.0.0.0/8", "D")
	r1, _ := v1.RouteReach("10.0.0.0/8", "D")
	if !r0.Reachable || r1.Reachable {
		t.Fatalf("update checking must catch the new block: before=%v after=%v", r0.Reachable, r1.Reachable)
	}
	// Original unchanged.
	if err := n.ApplyUpdate("zzz", "x"); err == nil {
		t.Fatal("unknown device update must fail")
	}
}

func TestCheckIntents(t *testing.T) {
	n := figure4Net(t)
	v, _ := n.Verifier(Options{K: 3})
	viols, err := v.CheckIntents([]Intent{
		{Prefix: "10.0.0.0/8", Router: "D", MinTolerance: 0},
		{Prefix: "10.0.0.0/8", Router: "D", MinTolerance: 1}, // violated: breaks at 1
		{Prefix: "10.0.0.0/8", Router: "C", MinTolerance: 1}, // holds: breaks at 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 1 || viols[0].Kind != "tolerance" {
		t.Fatalf("violations %v", viols)
	}
	if !strings.Contains(viols[0].String(), "tolerance") {
		t.Fatal("violation rendering")
	}
}

func TestRoleEquivalenceAndRacingFacades(t *testing.T) {
	n := NewNetwork()
	n.AddRouter(Router{Name: "src", AS: 65000, Vendor: "alpha"})
	n.AddRouter(Router{Name: "pe1", AS: 100, Vendor: "alpha", Group: "g"})
	n.AddRouter(Router{Name: "pe2", AS: 200, Vendor: "alpha", Group: "g"})
	n.AddLink("src", "pe1", 10)
	n.AddLink("src", "pe2", 10)
	n.SetConfig("src", "hostname src\nrouter bgp 65000\n network 10.0.0.0/8\n neighbor pe1 remote-as 100\n neighbor pe2 remote-as 200\n")
	n.SetConfig("pe1", "hostname pe1\nrouter bgp 100\n neighbor src remote-as 65000\n")
	n.SetConfig("pe2", "hostname pe2\nrouter bgp 200\n neighbor src remote-as 65000\n")
	v, err := n.Verifier(Options{})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := v.RoleEquivalence("pe1", "pe2")
	if err != nil || !eq.Equivalent {
		t.Fatalf("eq=%+v err=%v", eq, err)
	}
	// Drift pe2 and re-check via the audit.
	n2 := n.Clone()
	if err := n2.ApplyUpdate("pe2",
		"route-policy UP permit 10", " set local-preference 300",
		"router bgp 200", " neighbor src route-policy UP in"); err != nil {
		t.Fatal(err)
	}
	v2, _ := n2.Verifier(Options{})
	eq2, _ := v2.RoleEquivalence("pe1", "pe2")
	if eq2.Equivalent || len(eq2.Differences) == 0 {
		t.Fatalf("drift must break equivalence: %+v", eq2)
	}
	viols, err := v2.AuditGroups()
	if err != nil || len(viols) == 0 {
		t.Fatalf("audit must report the drift: %v err=%v", viols, err)
	}
	// Racing facade on a single-origin prefix: unambiguous.
	rr, err := v.CheckRacing("10.0.0.0/8")
	if err != nil || rr.Ambiguous {
		t.Fatalf("racing %+v err=%v", rr, err)
	}
}

func TestAuditConflictsAndAll(t *testing.T) {
	n := figure4Net(t)
	// Create an IP conflict: D also announces A's prefix.
	if err := n.ApplyUpdate("D", "router bgp 400", " network 10.0.0.0/8"); err != nil {
		t.Fatal(err)
	}
	v, _ := n.Verifier(Options{})
	viols, err := v.AuditConflicts()
	if err != nil || len(viols) != 1 || viols[0].Kind != "conflict" {
		t.Fatalf("conflicts %v err=%v", viols, err)
	}
	all, err := v.AuditAll([]string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, vi := range all {
		if vi.Kind == "conflict" {
			found = true
		}
	}
	if !found {
		t.Fatal("AuditAll must include conflicts")
	}
}

func TestAuditPacketGaps(t *testing.T) {
	n := figure4Net(t)
	if err := n.ApplyUpdate("C",
		"access-list BLK deny any 10.0.0.0/8",
		"access-list BLK permit any any",
		"interface D access-list BLK in"); err != nil {
		t.Fatal(err)
	}
	v, _ := n.Verifier(Options{})
	viols, err := v.AuditPacketGaps([]string{"D"})
	if err != nil || len(viols) != 1 || viols[0].Kind != "packet" {
		t.Fatalf("gaps %v err=%v", viols, err)
	}
}

// betaPermitNet is a two-router network whose verdict depends on the
// behavior registry: dst is a beta device whose route policy matches
// nothing the route carries, and only beta's true profile permits what
// a policy leaves unmatched.
func betaPermitNet() *Network {
	n := NewNetwork()
	n.AddRouter(Router{Name: "src", AS: 100, Vendor: "alpha"})
	n.AddRouter(Router{Name: "dst", AS: 200, Vendor: "beta"})
	n.AddLink("src", "dst", 10)
	n.SetConfig("src", "hostname src\nrouter bgp 100\n network 10.0.0.0/8\n neighbor dst remote-as 200\n")
	n.SetConfig("dst", "hostname dst\nvendor beta\nrouter bgp 200\n neighbor src remote-as 100\n neighbor src route-policy P in\nroute-policy P permit 10\n match community 9:9\n")
	return n
}

func TestNaiveVsTunedProfiles(t *testing.T) {
	n := betaPermitNet()
	vTuned, err := n.Verifier(Options{Profiles: TunedProfiles()})
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := vTuned.RouteReach("10.0.0.0/8", "dst")
	if !rep.Reachable {
		t.Fatal("beta default-permit must pass the route")
	}
	vNaive, err := n.Verifier(Options{Profiles: NaiveProfiles()})
	if err != nil {
		t.Fatal(err)
	}
	repN, _ := vNaive.RouteReach("10.0.0.0/8", "dst")
	if repN.Reachable {
		t.Fatal("naive model (alpha-like default-deny) must block — the pre-tuner inaccuracy")
	}
}

func TestTunerFacade(t *testing.T) {
	n := NewNetwork()
	n.AddRouter(Router{Name: "src", AS: 100, Vendor: "alpha"})
	n.AddRouter(Router{Name: "mid", AS: 200, Vendor: "beta"})
	n.AddRouter(Router{Name: "dst", AS: 300, Vendor: "alpha"})
	n.AddLink("src", "mid", 10)
	n.AddLink("mid", "dst", 10)
	n.SetConfig("src", "hostname src\nrouter bgp 100\n network 10.0.0.0/8\n neighbor mid remote-as 200\n neighbor mid route-policy T out\nroute-policy T permit 10\n set community add 1:2\n")
	n.SetConfig("mid", "hostname mid\nvendor beta\nrouter bgp 200\n neighbor src remote-as 100\n neighbor dst remote-as 300\n")
	n.SetConfig("dst", "hostname dst\nrouter bgp 300\n neighbor mid remote-as 200\n")

	tn, err := n.NewTuner(NaiveProfiles())
	if err != nil {
		t.Fatal(err)
	}
	// The tuner holds the network's map: a later edit copies it.
	held := tn.v.Snap["dst"]
	n.SetConfig("dst", "hostname dst\nrouter bgp 300\n")
	if tn.v.Snap["dst"] != held {
		t.Fatal("a SetConfig after NewTuner replaced the tuner's device")
	}
	ms, err := tn.Mismatches()
	if err != nil || len(ms) == 0 {
		t.Fatalf("expected mismatches, got %v err=%v", ms, err)
	}
	patches, err := tn.Run(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) == 0 {
		t.Fatal("tuner must apply patches")
	}
	acc, err := tn.Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	for p, a := range acc {
		if a != 1.0 {
			t.Fatalf("post-tune accuracy %s = %f", p, a)
		}
	}
	if len(tn.CoveragePrefixes()) == 0 || tn.String() == "" {
		t.Fatal("introspection")
	}
}

func TestStatsAndListings(t *testing.T) {
	n := figure4Net(t)
	v, _ := n.Verifier(Options{})
	st, err := v.Stats("10.0.0.0/8")
	if err != nil || st.Branches == 0 {
		t.Fatalf("stats %+v err=%v", st, err)
	}
	if got := v.Prefixes(); len(got) != 1 || got[0] != "10.0.0.0/8" {
		t.Fatalf("prefixes %v", got)
	}
	if got := v.Routers(); len(got) != 4 || got[0] != "A" {
		t.Fatalf("routers %v", got)
	}
}

func TestMinRouterFailures(t *testing.T) {
	n := figure4Net(t)
	v, err := n.Verifier(Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// D dies when C (its only transit) fails.
	got, err := v.MinRouterFailures("10.0.0.0/8", "D")
	if err != nil || got != 1 {
		t.Fatalf("D: %d err=%v, want 1", got, err)
	}
	// C hears the origin directly: no router failure breaks it.
	got, err = v.MinRouterFailures("10.0.0.0/8", "C")
	if err != nil || got != -1 {
		t.Fatalf("C: %d err=%v, want -1", got, err)
	}
	if _, err := v.MinRouterFailures("bad", "C"); err == nil {
		t.Fatal("bad prefix")
	}
	if _, err := v.MinRouterFailures("10.0.0.0/8", "zzz"); err == nil {
		t.Fatal("bad router")
	}
}
