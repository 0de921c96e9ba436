package behavior

import (
	"fmt"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/netaddr"
	"hoyan/internal/route"
	"hoyan/internal/topo"
)

// two devices peered eBGP (r1 AS100, r2 AS200) with optional config text
// appended to r2.
func pair(t *testing.T, prof1, prof2 Profile, extra1, extra2 string) (*Device, *Device) {
	t.Helper()
	net := topo.NewNetwork()
	n1 := net.MustAddNode(topo.Node{Name: "r1", AS: 100})
	n2 := net.MustAddNode(topo.Node{Name: "r2", AS: 200})
	cfg1, err := config.Parse("hostname r1\nrouter bgp 100\n neighbor r2 remote-as 200\n" + extra1)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := config.Parse("hostname r2\nrouter bgp 200\n neighbor r1 remote-as 100\n" + extra2)
	if err != nil {
		t.Fatal(err)
	}
	d1 := New(net.Node(n1), cfg1, prof1)
	d2 := New(net.Node(n2), cfg2, prof2)
	return d1, d2
}

// nb is d's neighbor entry for peer, nil when d configures none: what a
// caller of the pipelines resolves once per session.
func nb(d, peer *Device) *config.Neighbor {
	n, _ := d.Neighbor(peer.Cfg.Hostname)
	return n
}

func alphaProf() Profile { return TrueProfiles().Get(VendorAlpha) }
func betaProf() Profile  { return TrueProfiles().Get(VendorBeta) }

func TestSessionType(t *testing.T) {
	d1, d2 := pair(t, alphaProf(), alphaProf(), "", "")
	if d1.SessionTypeTo(d2) != SessEBGP {
		t.Fatal("different AS ⇒ eBGP")
	}
	d1.Cfg.BGP.AS = 200
	if d1.SessionTypeTo(d2) != SessIBGP {
		t.Fatal("same AS ⇒ iBGP")
	}
}

func TestEgressPrependsASAndSetsNextHop(t *testing.T) {
	d1, d2 := pair(t, alphaProf(), alphaProf(), "", "")
	r := route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, d1.Node.ID)
	r.Weight = 77
	r.LocalPref = 500
	res := d1.ProcessEgress(r, d2, nb(d1, d2))
	if res.Verdict != Pass {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Route.ASPathString() != "100" {
		t.Fatalf("path %q", res.Route.ASPathString())
	}
	if res.Route.NextHop != d1.Node.ID {
		t.Fatal("next-hop self on eBGP")
	}
	if res.Route.Weight != 0 || res.Route.LocalPref != route.DefaultLocalPref {
		t.Fatal("weight/local-pref must not cross eBGP")
	}
}

func TestCommunityVSBOnEgress(t *testing.T) {
	c := route.MakeCommunity(100, 920)
	mk := func() route.Route {
		r := route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, 0)
		r.AddCommunity(c)
		return r
	}
	// alpha keeps communities.
	d1, d2 := pair(t, alphaProf(), alphaProf(), "", "")
	if res := d1.ProcessEgress(mk(), d2, nb(d1, d2)); !res.Route.HasCommunity(c) {
		t.Fatal("alpha must keep communities")
	}
	// beta strips them (Figure 6's R2).
	b1, b2 := pair(t, betaProf(), alphaProf(), "", "")
	if res := b1.ProcessEgress(mk(), b2, nb(b1, b2)); res.Route.HasCommunity(c) {
		t.Fatal("beta must strip communities")
	}
}

func TestIngressASLoopVSB(t *testing.T) {
	d1, d2 := pair(t, alphaProf(), alphaProf(), "", "")
	r := route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, d2.Node.ID)
	r.ASPath = []uint32{100, 300} // contains r1's own AS
	if res := d1.ProcessIngress(r, d2, nb(d1, d2)); res.Verdict != DropLoop || res.Stage != StageLoopCheck {
		t.Fatalf("alpha (strict) must drop looped path, got %v", res.Verdict)
	}
	// beta allows one repetition.
	b1, b2 := pair(t, betaProf(), alphaProf(), "", "")
	if res := b1.ProcessIngress(withPath(route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, b2.Node.ID), 200, 300), b2, nb(b1, b2)); res.Verdict != Pass {
		t.Fatalf("beta must allow one repetition, got %v", res.Verdict)
	}
	// allowas-in 2 permits two repetitions even on alpha.
	a1, a2 := pair(t, alphaProf(), alphaProf(), " neighbor r2 allowas-in 2\n", "")
	rr := withPath(route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, a2.Node.ID), 100, 100)
	if res := a1.ProcessIngress(rr, a2, nb(a1, a2)); res.Verdict != Pass {
		t.Fatalf("allowas-in 2 must pass, got %v", res.Verdict)
	}
	rr3 := withPath(route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, a2.Node.ID), 100, 100, 100)
	if res := a1.ProcessIngress(rr3, a2, nb(a1, a2)); res.Verdict != DropLoop {
		t.Fatal("three repetitions exceed allowas-in 2")
	}
}

func withPath(r route.Route, ases ...uint32) route.Route {
	r.ASPath = ases
	return r
}

func TestDefaultPolicyVSB(t *testing.T) {
	// r1 has an ingress policy that matches nothing.
	polText := "route-policy NARROW permit 10\n match community 9:9\n"
	bind := " neighbor r2 route-policy NARROW in\n"
	r := route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, 0)
	r.ASPath = []uint32{200}

	// alpha: deny unmatched.
	d1, d2 := pair(t, alphaProf(), alphaProf(), bind+polText, "")
	res := d1.ProcessIngress(r, d2, nb(d1, d2))
	if res.Verdict != DropPolicy || !res.VendorDefaulted {
		t.Fatalf("alpha default-deny, got %v defaulted=%v", res.Verdict, res.VendorDefaulted)
	}
	// beta: permit unmatched.
	b1, b2 := pair(t, betaProf(), alphaProf(), bind+polText, "")
	if res := b1.ProcessIngress(r, b2, nb(b1, b2)); res.Verdict != Pass {
		t.Fatalf("beta default-permit, got %v", res.Verdict)
	}
	// No policy bound at all: always permit, not vendor-defaulted.
	n1, n2 := pair(t, alphaProf(), alphaProf(), "", "")
	if res := n1.ProcessIngress(r, n2, nb(n1, n2)); res.Verdict != Pass || res.VendorDefaulted {
		t.Fatal("unbound policy permits on all vendors")
	}
}

func TestIngressSetsProtocolAndPreference(t *testing.T) {
	d1, d2 := pair(t, alphaProf(), alphaProf(), " neighbor r2 preference 30\n", "")
	r := route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, 0)
	r.ASPath = []uint32{200}
	res := d1.ProcessIngress(r, d2, nb(d1, d2))
	if res.Route.Protocol != route.EBGP || res.Route.AdminPref != 30 {
		t.Fatalf("eBGP ingress %+v", res.Route)
	}
	if res.Route.FromNode != d2.Node.ID {
		t.Fatal("FromNode")
	}
	// Process-wide preference applies when neighbor preference absent.
	p1, p2 := pair(t, alphaProf(), alphaProf(), " preference 25\n", "")
	if res := p1.ProcessIngress(r, p2, nb(p1, p2)); res.Route.AdminPref != 25 {
		t.Fatalf("process preference, got %d", res.Route.AdminPref)
	}
}

func TestIngressFromUnknownNeighbor(t *testing.T) {
	d1, _ := pair(t, alphaProf(), alphaProf(), "", "")
	net := topo.NewNetwork()
	n3 := net.MustAddNode(topo.Node{Name: "r3", AS: 300})
	cfg3, _ := config.Parse("hostname r3\nrouter bgp 300\n neighbor r1 remote-as 100")
	d3 := New(net.Node(n3), cfg3, alphaProf())
	r := route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, 0)
	if res := d1.ProcessIngress(r, d3, nb(d1, d3)); res.Verdict != DropNoNeighbor {
		t.Fatal("route from unconfigured peer must drop")
	}
}

func TestRemovePrivateASVSB(t *testing.T) {
	mk := func() route.Route {
		r := route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, 0)
		r.ASPath = []uint32{64512, 300, 64513}
		return r
	}
	// alpha removes all.
	d1, d2 := pair(t, alphaProf(), alphaProf(), " neighbor r2 remove-private-as\n", "")
	if res := d1.ProcessEgress(mk(), d2, nb(d1, d2)); res.Route.ASPathString() != "100-300" {
		t.Fatalf("alpha remove-all: %q", res.Route.ASPathString())
	}
	// beta removes only the leading run (none here since path starts private...
	// leading run is 64512, so removes it, keeps 64513).
	b1, b2 := pair(t, betaProf(), alphaProf(), " neighbor r2 remove-private-as\n", "")
	if res := b1.ProcessEgress(mk(), b2, nb(b1, b2)); res.Route.ASPathString() != "100-300-64513" {
		t.Fatalf("beta remove-leading (leading 64512 stripped, inner 64513 kept): %q", res.Route.ASPathString())
	}
	// Without remove-private-as configured, nothing is stripped.
	c1, c2 := pair(t, alphaProf(), alphaProf(), "", "")
	if res := c1.ProcessEgress(mk(), c2, nb(c1, c2)); res.Route.ASPathString() != "100-64512-300-64513" {
		t.Fatalf("unconfigured: %q", res.Route.ASPathString())
	}
}

func TestLocalASVSB(t *testing.T) {
	mk := func() route.Route {
		return route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, 0)
	}
	// Migrating router (AS 100, local-as 65001), alpha semantics: old only.
	d1, d2 := pair(t, alphaProf(), alphaProf(), " local-as 65001\n", "")
	if res := d1.ProcessEgress(mk(), d2, nb(d1, d2)); res.Route.ASPathString() != "65001" {
		t.Fatalf("alpha old-only: %q", res.Route.ASPathString())
	}
	// beta: both old and new — path longer by one, which changes best-path
	// decisions downstream (the Table 2 impact).
	b1, b2 := pair(t, betaProf(), alphaProf(), " local-as 65001\n", "")
	if res := b1.ProcessEgress(mk(), b2, nb(b1, b2)); res.Route.ASPathString() != "65001-100" {
		t.Fatalf("beta old+new: %q", res.Route.ASPathString())
	}
}

func TestSelfNextHopVPNVSB(t *testing.T) {
	// iBGP session (same AS) flagged vpn.
	mkPair := func(prof Profile) (*Device, *Device) {
		net := topo.NewNetwork()
		n1 := net.MustAddNode(topo.Node{Name: "r1", AS: 100})
		n2 := net.MustAddNode(topo.Node{Name: "r2", AS: 100})
		cfg1, _ := config.Parse("hostname r1\nrouter bgp 100\n neighbor r2 remote-as 100\n neighbor r2 vpn")
		cfg2, _ := config.Parse("hostname r2\nrouter bgp 100\n neighbor r1 remote-as 100")
		return New(net.Node(n1), cfg1, prof), New(net.Node(n2), cfg2, prof)
	}
	r := route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, 7)
	r.NextHop = 7 // learned from some eBGP peer B
	// alpha: next-hop preserved.
	a1, a2 := mkPair(alphaProf())
	if res := a1.ProcessEgress(r, a2, nb(a1, a2)); res.Verdict != Pass || res.Route.NextHop != 7 {
		t.Fatalf("alpha preserves next-hop, got %v nh=%d", res.Verdict, res.Route.NextHop)
	}
	// beta: self-next-hop on VPN sessions.
	b1, b2 := mkPair(betaProf())
	if res := b1.ProcessEgress(r, b2, nb(b1, b2)); res.Route.NextHop != b1.Node.ID {
		t.Fatalf("beta self-next-hop, nh=%d", res.Route.NextHop)
	}
}

func TestIBGPSplitHorizonAndRR(t *testing.T) {
	net := topo.NewNetwork()
	n1 := net.MustAddNode(topo.Node{Name: "rr", AS: 100})
	n2 := net.MustAddNode(topo.Node{Name: "c1", AS: 100})
	n3 := net.MustAddNode(topo.Node{Name: "c2", AS: 100})
	names := map[topo.NodeID]string{n1: "rr", n2: "c1", n3: "c2"}
	namer := func(id topo.NodeID) string { return names[id] }
	cfgRR, _ := config.Parse("hostname rr\nrouter bgp 100\n neighbor c1 remote-as 100\n neighbor c1 route-reflector-client\n neighbor c2 remote-as 100")
	cfgC1, _ := config.Parse("hostname c1\nrouter bgp 100\n neighbor rr remote-as 100")
	cfgC2, _ := config.Parse("hostname c2\nrouter bgp 100\n neighbor rr remote-as 100")
	rr := New(net.Node(n1), cfgRR, alphaProf())
	rr.NodeNamer = namer
	c1 := New(net.Node(n2), cfgC1, alphaProf())
	c2 := New(net.Node(n3), cfgC2, alphaProf())

	// iBGP route learned from client c1 → reflected to non-client c2.
	r := route.New(netaddr.MustParse("10.0.1.0/24"), route.IBGP, n2)
	r.Protocol = route.IBGP
	r.FromNode = n2
	if res := rr.ProcessEgress(r, c2, nb(rr, c2)); res.Verdict != Pass {
		t.Fatalf("client route must reflect to non-client, got %v", res.Verdict)
	}
	// iBGP route learned from non-client c2 → reflected to client c1.
	r2 := route.New(netaddr.MustParse("10.0.2.0/24"), route.IBGP, n3)
	r2.Protocol = route.IBGP
	r2.FromNode = n3
	if res := rr.ProcessEgress(r2, c1, nb(rr, c1)); res.Verdict != Pass {
		t.Fatalf("non-client route must reflect to client, got %v", res.Verdict)
	}
	// Plain router (no clients): iBGP-learned not re-advertised over iBGP.
	if res := c1.ProcessEgress(r2, rr, nb(c1, rr)); res.Verdict != DropPolicy {
		t.Fatalf("split horizon must drop, got %v", res.Verdict)
	}
	// eBGP-learned routes always advertise over iBGP.
	r3 := route.New(netaddr.MustParse("10.0.3.0/24"), route.EBGP, n3)
	r3.Protocol = route.EBGP
	if res := c1.ProcessEgress(r3, rr, nb(c1, rr)); res.Verdict != Pass {
		t.Fatalf("eBGP-learned must advertise over iBGP, got %v", res.Verdict)
	}
}

func TestOriginatedBGP(t *testing.T) {
	extra := " network 10.0.1.0/24\n redistribute static\nip route 5.0.0.0/8 r2\nip route 0.0.0.0/0 r2\n"
	resolve := func(name string) (topo.NodeID, bool) { return 1, name == "r2" }
	// alpha redistributes the default route.
	d1, _ := pair(t, alphaProf(), alphaProf(), extra, "")
	rs := d1.OriginatedBGP(resolve)
	if len(rs) != 3 {
		t.Fatalf("alpha originates 3 routes, got %d: %v", len(rs), rs)
	}
	// beta silently refuses 0.0.0.0/0 (the redistribution VSB).
	b1, _ := pair(t, betaProf(), alphaProf(), extra, "")
	rs = b1.OriginatedBGP(resolve)
	if len(rs) != 2 {
		t.Fatalf("beta originates 2 routes, got %d: %v", len(rs), rs)
	}
	for _, r := range rs {
		if r.Prefix.IsDefault() {
			t.Fatal("beta must not redistribute the default route")
		}
	}
}

func TestOriginatedBGPRedistributePolicy(t *testing.T) {
	extra := " redistribute static route-policy RPST\nip route 5.0.0.0/8 r2\nip route 6.0.0.0/8 r2\n" +
		"route-policy RPST permit 10\n match prefix-list PL5\n" +
		"ip prefix-list PL5 permit 5.0.0.0/8\n"
	resolve := func(string) (topo.NodeID, bool) { return 1, true }
	d1, _ := pair(t, alphaProf(), alphaProf(), extra, "")
	rs := d1.OriginatedBGP(resolve)
	if len(rs) != 1 || rs[0].Prefix != netaddr.MustParse("5.0.0.0/8") {
		t.Fatalf("policy must filter redistribution: %v", rs)
	}
	if rs[0].OriginAtt != route.OriginIncomplete {
		t.Fatal("redistributed routes carry origin incomplete")
	}
}

func TestPermitDataACLVSB(t *testing.T) {
	acl := "access-list A1 deny any 10.0.1.0/24\ninterface r2 access-list A1 in\n"
	src := netaddr.MustParse("1.2.3.4").Addr
	inside := netaddr.MustParse("10.0.1.9").Addr
	outside := netaddr.MustParse("10.0.2.9").Addr

	d1, _ := pair(t, alphaProf(), alphaProf(), acl, "")
	if ok, _, _ := d1.PermitData("r2", "in", src, inside); ok {
		t.Fatal("explicit deny")
	}
	// Unmatched packet: alpha permits by default.
	if ok, _, vd := d1.PermitData("r2", "in", src, outside); !ok || !vd {
		t.Fatal("alpha default-permit with vendor-default flag")
	}
	// beta denies unmatched.
	b1, _ := pair(t, betaProf(), alphaProf(), acl, "")
	if ok, _, _ := b1.PermitData("r2", "in", src, outside); ok {
		t.Fatal("beta default-deny")
	}
	// Unbound interface permits everywhere.
	if ok, _, _ := b1.PermitData("r2", "out", src, outside); !ok {
		t.Fatal("unbound interface permits")
	}
}

func TestProfileRegistry(t *testing.T) {
	reg := TrueProfiles()
	if len(reg.Vendors()) != 3 {
		t.Fatalf("vendors %v", reg.Vendors())
	}
	// Unknown vendor falls back.
	p := reg.Get("unknown")
	if p.Vendor != "unknown" {
		t.Fatal("fallback must carry the requested vendor name")
	}
	// Clone independence.
	c := reg.Clone()
	c.Apply(Patch{Vendor: VendorAlpha, VSB: VSBCommunity, Value: false})
	if !reg.Get(VendorAlpha).KeepCommunities {
		t.Fatal("clone leaked patch")
	}
	if len(c.Patches()) != 1 {
		t.Fatal("patch log")
	}
}

func TestProfileGetWith(t *testing.T) {
	var p Profile
	for _, v := range AllVSBs {
		if p.Get(v) {
			t.Fatalf("zero profile must be all-false (%s)", v)
		}
		q := p.With(v, true)
		if !q.Get(v) {
			t.Fatalf("With(%s) not reflected in Get", v)
		}
		if p.Get(v) {
			t.Fatal("With must not mutate receiver")
		}
	}
}

func TestDiffNaiveVsTrue(t *testing.T) {
	diff := Diff(NaiveProfiles(), TrueProfiles())
	// alpha matches the naive assumption; beta diverges on all 8 VSBs,
	// gamma on 3 (default-policy matches alpha... see TrueProfiles doc).
	byVendor := map[string]int{}
	for _, p := range diff {
		byVendor[p.Vendor]++
	}
	if byVendor[VendorAlpha] != 0 {
		t.Fatalf("alpha is the assumed baseline, diff %v", diff)
	}
	if byVendor[VendorBeta] != 8 {
		t.Fatalf("beta must diverge on all 8 VSBs, got %d", byVendor[VendorBeta])
	}
	if byVendor[VendorGamma] != 2 {
		t.Fatalf("gamma diverges on community and self-next-hop, got %d", byVendor[VendorGamma])
	}
	// Applying the diff as patches converges the registries.
	reg := NaiveProfiles()
	for _, p := range diff {
		reg.Apply(p)
	}
	if rest := Diff(reg, TrueProfiles()); len(rest) != 0 {
		t.Fatalf("after patching, registries must agree: %v", rest)
	}
}

func TestPatchString(t *testing.T) {
	p := Patch{Vendor: VendorBeta, VSB: VSBCommunity, Value: false, Note: "seen at r3"}
	s := p.String()
	if s == "" || PatchLines[VSBCommunity] != 46 {
		t.Fatalf("patch string %q", s)
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		Pass: "pass", DropPolicy: "drop-policy", DropLoop: "drop-loop", DropNoNeighbor: "drop-no-neighbor",
	} {
		if v.String() != want {
			t.Fatal(want)
		}
	}
	if Verdict(9).String() != "verdict(9)" {
		t.Fatal("unknown verdict")
	}
}

// TestPipelinesLeaveInputRoute pins the other half of the route value
// rule: neither pipeline writes the route it is handed, so one origin
// route can feed every simulator goroutine without a copy. The input's
// slices have spare capacity, so an append in place would land in them;
// after egress and ingress over eBGP and iBGP sessions whose policies
// and neighbor options reach every mutator, under every profile the
// verifier and the emulator use and with each VSB toggled, the input
// must equal a deep copy saved before the call.
func TestPipelinesLeaveInputRoute(t *testing.T) {
	type namedProfile struct {
		name string
		prof Profile
	}
	var profiles []namedProfile
	for _, reg := range []struct {
		name string
		reg  *Registry
	}{{"true", TrueProfiles()}, {"naive", NaiveProfiles()}} {
		for _, v := range reg.reg.Vendors() {
			p := reg.reg.Get(v)
			profiles = append(profiles, namedProfile{reg.name + "/" + v, p})
			for _, vsb := range AllVSBs {
				profiles = append(profiles, namedProfile{reg.name + "/" + v + "/" + string(vsb), p.With(vsb, !p.Get(vsb))})
			}
		}
	}
	policies := "route-policy OUT permit 10\n set community delete 1:2\n set community add 1:9\n set as-path prepend 100 100\n" +
		"route-policy IN permit 10\n set community none\n set community add 2:2\n set as-path prepend 300\n set local-preference 300\n" +
		"route-policy NONE permit 10\n match community 9:9\n"
	sessions := []struct {
		name           string
		as1, as2       uint32
		extra1, extra2 string
	}{
		{"ebgp-rewrite", 100, 200,
			" local-as 65010\n neighbor r2 remove-private-as\n neighbor r2 route-policy OUT out\n" + policies,
			" neighbor r1 route-policy IN in\n" + policies},
		{"ebgp-default", 100, 200,
			" neighbor r2 remove-private-as\n neighbor r2 route-policy NONE out\n" + policies,
			" neighbor r1 route-policy NONE in\n" + policies},
		{"ibgp", 100, 100,
			" neighbor r2 next-hop-self\n neighbor r2 vpn\n neighbor r2 route-reflector-client\n neighbor r2 route-policy OUT out\n" + policies,
			" neighbor r1 route-policy IN in\n" + policies},
	}
	input := func() route.Route {
		r := route.New(netaddr.MustParse("10.0.1.0/24"), route.EBGP, 5)
		r.ASPath = append(make([]uint32, 0, 16), 64512, 64513, 300, 64514)
		r.Comms = append(make([]route.Community, 0, 16), route.MakeCommunity(1, 1), route.MakeCommunity(1, 2))
		r.ExtComms = append(make([]uint64, 0, 8), 7)
		r.FromNode = 5
		return r
	}
	delivered := 0
	for _, se := range sessions {
		for _, np := range profiles {
			name, prof := np.name, np.prof
			net := topo.NewNetwork()
			n1 := net.MustAddNode(topo.Node{Name: "r1", AS: se.as1})
			n2 := net.MustAddNode(topo.Node{Name: "r2", AS: se.as2})
			cfg1, err := config.Parse(fmt.Sprintf("hostname r1\nrouter bgp %d\n neighbor r2 remote-as %d\n%s", se.as1, se.as2, se.extra1))
			if err != nil {
				t.Fatal(err)
			}
			cfg2, err := config.Parse(fmt.Sprintf("hostname r2\nrouter bgp %d\n neighbor r1 remote-as %d\n%s", se.as2, se.as1, se.extra2))
			if err != nil {
				t.Fatal(err)
			}
			d1, d2 := New(net.Node(n1), cfg1, prof), New(net.Node(n2), cfg2, prof)
			r := input()
			eg := d1.ProcessEgress(r, d2, nb(d1, d2))
			unchanged(t, se.name+" egress "+name, r, input())
			if eg.Verdict != Pass {
				continue
			}
			sent := eg.Route
			saved := sent
			saved.ASPath = append([]uint32(nil), sent.ASPath...)
			saved.Comms = append([]route.Community(nil), sent.Comms...)
			saved.ExtComms = append([]uint64(nil), sent.ExtComms...)
			if d2.ProcessIngress(sent, d1, nb(d2, d1)).Verdict == Pass {
				delivered++
			}
			unchanged(t, se.name+" ingress "+name, sent, saved)
		}
	}
	if delivered == 0 {
		t.Fatal("no route crossed both pipelines: the test shows nothing")
	}
}

// unchanged fails when r differs from want, or when anything was written
// into the spare capacity of r's slices.
func unchanged(t *testing.T, what string, r, want route.Route) {
	t.Helper()
	if d := route.DiffAttrs(r, want); d != "" || r.FromNode != want.FromNode || r.OriginNode != want.OriginNode {
		t.Errorf("%s wrote its input route (%q): %v, want %v", what, d, r, want)
	}
	for _, a := range r.ASPath[len(r.ASPath):cap(r.ASPath)] {
		if a != 0 {
			t.Errorf("%s wrote past its input's AS path: %v", what, r.ASPath[:cap(r.ASPath)])
			break
		}
	}
	for _, c := range r.Comms[len(r.Comms):cap(r.Comms)] {
		if c != 0 {
			t.Errorf("%s wrote past its input's communities: %v", what, r.Comms[:cap(r.Comms)])
			break
		}
	}
}
