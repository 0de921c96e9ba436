package config

import (
	"strings"
	"testing"

	"hoyan/internal/netaddr"
	"hoyan/internal/policy"
	"hoyan/internal/route"
)

const sampleConfig = `
hostname r1
vendor alpha
!
router bgp 100
  router-id 1.1.1.1
  preference 20
  local-as 65001
  network 10.0.1.0/24
  network 10.0.2.0/24
  redistribute static route-policy RP_STATIC
  aggregate-address 10.0.1.0/31 components 10.0.1.0/32 10.0.1.1/32
  neighbor r2 remote-as 200
  neighbor r2 route-policy RP_IN in
  neighbor r2 route-policy RP_OUT out
  neighbor r2 preference 30
  neighbor r2 next-hop-self
  neighbor r2 remove-private-as
  neighbor r3 remote-as 100
  neighbor r3 route-reflector-client
  neighbor r3 vpn
  neighbor r3 allowas-in 2
!
router isis
  level 12
  penetrate
  metric r3 25
!
ip route 10.9.0.0/16 r3 preference 1
ip route 0.0.0.0/0 r2
!
route-policy RP_IN permit 10
  match prefix-list PL1
  match community 100:920
  set local-preference 300
  set weight 100
route-policy RP_IN deny 20
route-policy RP_OUT permit 10
  match no-community 100:30
  set community add 100:920
  set as-path prepend 65000 65000
  set med 5
  set next-hop-self
route-policy RP_STATIC permit 10
  match protocol static
!
ip prefix-list PL1 permit 10.0.0.0/8 le 32
ip prefix-list PL1 deny 0.0.0.0/0 le 32
!
access-list ACL1 deny any 10.0.1.0/24
access-list ACL1 permit any any
interface r2 access-list ACL1 out
`

func mustParse(t *testing.T, text string) *Device {
	t.Helper()
	d, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return d
}

func TestParseFull(t *testing.T) {
	d := mustParse(t, sampleConfig)
	if d.Hostname != "r1" || d.Vendor != "alpha" {
		t.Fatalf("identity %q %q", d.Hostname, d.Vendor)
	}
	b := d.BGP
	if b == nil || b.AS != 100 || b.Preference != 20 || b.LocalAS != 65001 {
		t.Fatalf("bgp %+v", b)
	}
	if b.RouterID != netaddr.MustParse("1.1.1.1/32").Addr {
		t.Fatal("router-id")
	}
	if len(b.Networks) != 2 || !b.HasNetwork(netaddr.MustParse("10.0.1.0/24")) {
		t.Fatalf("networks %v", b.Networks)
	}
	if len(b.Redistribute) != 1 || b.Redistribute[0].Policy != "RP_STATIC" {
		t.Fatalf("redistribute %v", b.Redistribute)
	}
	if len(b.Aggregates) != 1 || len(b.Aggregates[0].Components) != 2 {
		t.Fatalf("aggregates %v", b.Aggregates)
	}
	n2, ok := b.FindNeighbor("r2")
	if !ok || n2.RemoteAS != 200 || n2.InPolicy != "RP_IN" || n2.OutPolicy != "RP_OUT" ||
		n2.Preference != 30 || !n2.NextHopSelf || !n2.RemovePrivateAS {
		t.Fatalf("neighbor r2 %+v", n2)
	}
	n3, ok := b.FindNeighbor("r3")
	if !ok || !n3.RouteReflectorClient || !n3.VPN || n3.AllowASIn != 2 {
		t.Fatalf("neighbor r3 %+v", n3)
	}
	if d.ISIS == nil || d.ISIS.Level != 12 || !d.ISIS.Penetrate || d.ISIS.Metrics["r3"] != 25 {
		t.Fatalf("isis %+v", d.ISIS)
	}
	if len(d.Statics) != 2 || d.Statics[0].Preference != 1 || !d.Statics[1].Prefix.IsDefault() {
		t.Fatalf("statics %v", d.Statics)
	}
	rp := d.RoutePolicies["RP_IN"]
	if rp == nil || len(rp.Terms) != 2 {
		t.Fatalf("RP_IN %v", rp)
	}
	t0 := rp.Terms[0]
	if t0.Action != policy.Permit || t0.Seq != 10 ||
		t0.Match.PrefixList == nil || t0.Match.Community != route.MakeCommunity(100, 920) ||
		t0.Set.LocalPref == nil || *t0.Set.LocalPref != 300 || *t0.Set.Weight != 100 {
		t.Fatalf("RP_IN term0 %+v", t0)
	}
	// Prefix list reference must be resolved to the parsed list.
	if len(t0.Match.PrefixList.Rules) != 2 {
		t.Fatal("prefix-list reference not resolved")
	}
	out := d.RoutePolicies["RP_OUT"].Terms[0]
	if out.Match.NoCommunity != route.MakeCommunity(100, 30) || len(out.Set.AddComms) != 1 ||
		len(out.Set.PrependAS) != 2 || out.Set.MED == nil || !out.Set.NextHopSelf {
		t.Fatalf("RP_OUT %+v", out)
	}
	st := d.RoutePolicies["RP_STATIC"].Terms[0]
	if st.Match.Protocol == nil || *st.Match.Protocol != route.Static {
		t.Fatal("protocol match")
	}
	acl := d.ACLs["ACL1"]
	if acl == nil || len(acl.Rules) != 2 || acl.Rules[0].Action != policy.Deny {
		t.Fatalf("acl %+v", acl)
	}
	if d.InterfaceACLs["r2/out"] != "ACL1" {
		t.Fatal("interface binding")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"garbage line",
		"router ospf",
		"router bgp notanumber",
		"ip route 10.0.0.0/8",                   // missing nexthop
		"ip route bad/8 r2",                     // bad prefix
		"route-policy RP permit ten",            // bad seq
		"route-policy RP banana 10",             // bad action
		"access-list A permit any",              // missing dst
		"interface r2 access-list ACL sideways", // bad direction
		"router bgp 1\nneighbor r2 frobnicate",  // bad neighbor subcommand
		"router bgp 1\naggregate-address 10.0.0.0/8 components 11.0.0.0/8", // component outside
		"router isis\nlevel 9",                              // bad level
		"router bgp 1\nneighbor r2 route-policy MISSING in", // validation: unknown policy
		"route-policy RP permit 10\nmatch prefix-list NOPE", // validation: unknown prefix list
		"interface r2 access-list NOPE in",                  // validation: unknown acl
		"ip prefix-list PL permit 10.0.0.0/8 ge 40",         // bad ge
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) must fail", c)
		}
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := Parse("hostname r1\ngarbage here\n")
	pe, ok := err.(*ParseError)
	if !ok || pe.Line != 2 {
		t.Fatalf("want ParseError at line 2, got %v", err)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Fatalf("error text %q", pe.Error())
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	d := mustParse(t, sampleConfig)
	text := Write(d)
	d2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	text2 := Write(d2)
	if text != text2 {
		t.Fatalf("canonical form not stable:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := mustParse(t, sampleConfig)
	c := d.Clone()
	c.BGP.Neighbor("r9").RemoteAS = 999
	c.Statics = append(c.Statics, StaticRoute{Prefix: netaddr.MustParse("1.0.0.0/8"), NextHop: "r2"})
	c.RoutePolicies["RP_IN"].Terms[0].Seq = 777
	if _, ok := d.BGP.FindNeighbor("r9"); ok {
		t.Fatal("clone leaked neighbor")
	}
	if len(d.Statics) != 2 {
		t.Fatal("clone leaked statics")
	}
	if d.RoutePolicies["RP_IN"].Terms[0].Seq == 777 {
		t.Fatal("clone leaked policy terms")
	}
}

func TestConfigBlocks(t *testing.T) {
	d := mustParse(t, sampleConfig)
	blocks := d.ConfigBlocks()
	want := []string{"access-list/ACL1", "aggregate/10.0.1.0/31", "bgp", "isis",
		"neighbor/r2", "neighbor/r3", "redistribute/static",
		"route-policy/RP_IN", "route-policy/RP_OUT", "route-policy/RP_STATIC", "static"}
	if len(blocks) != len(want) {
		t.Fatalf("blocks %v", blocks)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("blocks[%d] = %q, want %q", i, blocks[i], want[i])
		}
	}
}

func TestApplyUpdateAdditions(t *testing.T) {
	d := mustParse(t, sampleConfig)
	up := Update{Device: "r1", Lines: []string{
		"router bgp 100",
		"  network 10.0.3.0/24",
		"  neighbor r4 remote-as 400",
	}}
	nd, err := ApplyUpdate(d, up)
	if err != nil {
		t.Fatal(err)
	}
	if !nd.BGP.HasNetwork(netaddr.MustParse("10.0.3.0/24")) {
		t.Fatal("network not added")
	}
	if _, ok := nd.BGP.FindNeighbor("r4"); !ok {
		t.Fatal("neighbor not added")
	}
	// Original untouched.
	if d.BGP.HasNetwork(netaddr.MustParse("10.0.3.0/24")) {
		t.Fatal("ApplyUpdate mutated the snapshot")
	}
	// Existing statements preserved.
	if n2, _ := nd.BGP.FindNeighbor("r2"); n2.InPolicy != "RP_IN" {
		t.Fatal("existing neighbor config lost")
	}
}

func TestApplyUpdateModifiesExisting(t *testing.T) {
	d := mustParse(t, sampleConfig)
	// The §7.1 scenario: change static preference 1 → 150.
	up := Update{Device: "r1", Lines: []string{
		"no ip route 10.9.0.0/16 r3",
		"ip route 10.9.0.0/16 r3 preference 150",
	}}
	nd, err := ApplyUpdate(d, up)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, sr := range nd.Statics {
		if sr.Prefix == netaddr.MustParse("10.9.0.0/16") {
			found = true
			if sr.Preference != 150 {
				t.Fatalf("preference = %d, want 150", sr.Preference)
			}
		}
	}
	if !found {
		t.Fatal("static route lost")
	}
}

func TestApplyUpdateRemovals(t *testing.T) {
	d := mustParse(t, sampleConfig)
	up := Update{Device: "r1", Lines: []string{
		"no neighbor r3",
		"no network 10.0.2.0/24",
		"no redistribute static",
		"no neighbor r2 next-hop-self",
	}}
	nd, err := ApplyUpdate(d, up)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nd.BGP.FindNeighbor("r3"); ok {
		t.Fatal("neighbor r3 not removed")
	}
	if nd.BGP.HasNetwork(netaddr.MustParse("10.0.2.0/24")) {
		t.Fatal("network not removed")
	}
	if len(nd.BGP.Redistribute) != 0 {
		t.Fatal("redistribute not removed")
	}
	if n2, _ := nd.BGP.FindNeighbor("r2"); n2.NextHopSelf {
		t.Fatal("next-hop-self not cleared")
	}
}

func TestApplyUpdateRemovalErrors(t *testing.T) {
	d := mustParse(t, sampleConfig)
	for _, lines := range [][]string{
		{"no neighbor r99"},
		{"no network 99.0.0.0/8"},
		{"no ip route 99.0.0.0/8 r2"},
		{"no route-policy NOPE"},
		{"no access-list NOPE"},
		{"no redistribute isis"},
		{"no frobnicate"},
	} {
		if _, err := ApplyUpdate(d, Update{Device: "r1", Lines: lines}); err == nil {
			t.Errorf("removal %v must fail", lines)
		}
	}
}

func TestSnapshotApply(t *testing.T) {
	d := mustParse(t, sampleConfig)
	snap := Snapshot{"r1": d}
	out, err := snap.Apply([]Update{{Device: "r1", Lines: []string{"router bgp 100", "network 77.0.0.0/8"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !out["r1"].BGP.HasNetwork(netaddr.MustParse("77.0.0.0/8")) {
		t.Fatal("snapshot apply")
	}
	if snap["r1"].BGP.HasNetwork(netaddr.MustParse("77.0.0.0/8")) {
		t.Fatal("snapshot mutated")
	}
	if _, err := snap.Apply([]Update{{Device: "rX"}}); err == nil {
		t.Fatal("unknown device must fail")
	}
}

// TestApplySharesUntouchedDevices pins the snapshot immutability
// contract Diff's identity rule rests on: Apply hands back every device
// no update names as the same object, a new object for the one it
// edits, and leaves the receiver's configurations byte for byte as they
// were.
func TestApplySharesUntouchedDevices(t *testing.T) {
	snap := Snapshot{"r1": mustParse(t, sampleConfig)}
	for _, name := range []string{"r2", "r3"} {
		snap[name] = mustParse(t, "hostname "+name+"\nrouter bgp 200\n  network 20.0.0.0/8\n  neighbor r1 remote-as 100\n")
	}
	before := map[string]string{}
	for name, d := range snap {
		before[name] = Write(d)
	}
	out, err := snap.Apply([]Update{{Device: "r2", Lines: []string{"router bgp 200", "no network 20.0.0.0/8", "network 21.0.0.0/8"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(snap) {
		t.Fatalf("Apply returned %d devices, want %d", len(out), len(snap))
	}
	for name, d := range snap {
		if shared := out[name] == d; shared != (name != "r2") {
			t.Errorf("%s: shared with the receiver = %v, want %v", name, shared, name != "r2")
		}
		if got := Write(d); got != before[name] {
			t.Errorf("Apply changed the receiver's %s:\n%s\nwant\n%s", name, got, before[name])
		}
	}
	if !out["r2"].BGP.HasNetwork(netaddr.MustParse("21.0.0.0/8")) || out["r2"].BGP.HasNetwork(netaddr.MustParse("20.0.0.0/8")) {
		t.Fatalf("the update did not land on the new r2:\n%s", Write(out["r2"]))
	}
}

func TestRemoveACLUnbindsInterfaces(t *testing.T) {
	d := mustParse(t, sampleConfig)
	nd, err := ApplyUpdate(d, Update{Device: "r1", Lines: []string{"no access-list ACL1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(nd.ACLs) != 0 || len(nd.InterfaceACLs) != 0 {
		t.Fatal("ACL removal must unbind interfaces")
	}
}

func TestResolvedPolicy(t *testing.T) {
	d := mustParse(t, sampleConfig)
	if p, err := d.ResolvedPolicy(""); p != nil || err != nil {
		t.Fatal("empty name is nil policy")
	}
	if p, err := d.ResolvedPolicy("RP_IN"); err != nil || p == nil {
		t.Fatal("known policy")
	}
	if _, err := d.ResolvedPolicy("NOPE"); err == nil {
		t.Fatal("unknown policy must error")
	}
}
