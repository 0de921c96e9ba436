package policy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hoyan/internal/netaddr"
	"hoyan/internal/route"
)

func u32(v uint32) *uint32 { return &v }

func TestActionString(t *testing.T) {
	if Permit.String() != "permit" || Deny.String() != "deny" {
		t.Fatal("action rendering")
	}
}

func TestPrefixRuleExact(t *testing.T) {
	r := PrefixRule{Action: Permit, Prefix: netaddr.MustParse("10.0.0.0/8")}
	if !r.Matches(netaddr.MustParse("10.0.0.0/8")) {
		t.Fatal("exact match")
	}
	if r.Matches(netaddr.MustParse("10.1.0.0/16")) {
		t.Fatal("longer prefix must not match without le")
	}
	if r.Matches(netaddr.MustParse("11.0.0.0/8")) {
		t.Fatal("outside prefix")
	}
}

func TestPrefixRuleGELE(t *testing.T) {
	r := PrefixRule{Prefix: netaddr.MustParse("10.0.0.0/8"), GE: 16, LE: 24}
	if r.Matches(netaddr.MustParse("10.0.0.0/8")) {
		t.Fatal("len 8 < ge 16")
	}
	if !r.Matches(netaddr.MustParse("10.1.0.0/16")) || !r.Matches(netaddr.MustParse("10.1.2.0/24")) {
		t.Fatal("in range")
	}
	if r.Matches(netaddr.MustParse("10.1.2.0/25")) {
		t.Fatal("len 25 > le 24")
	}
	// le-only: ge defaults to prefix length.
	r2 := PrefixRule{Prefix: netaddr.MustParse("10.0.0.0/8"), LE: 32}
	if !r2.Matches(netaddr.MustParse("10.0.0.0/8")) || !r2.Matches(netaddr.MustParse("10.9.9.9/32")) {
		t.Fatal("le 32 covers whole subtree")
	}
}

func TestPrefixListFirstMatchWins(t *testing.T) {
	pl := &PrefixList{Name: "PL", Rules: []PrefixRule{
		{Action: Deny, Prefix: netaddr.MustParse("10.1.0.0/16"), LE: 32},
		{Action: Permit, Prefix: netaddr.MustParse("10.0.0.0/8"), LE: 32},
	}}
	if pl.Permits(netaddr.MustParse("10.1.2.0/24")) {
		t.Fatal("deny term must win")
	}
	if !pl.Permits(netaddr.MustParse("10.2.0.0/16")) {
		t.Fatal("fallthrough to permit")
	}
	if pl.Permits(netaddr.MustParse("11.0.0.0/8")) {
		t.Fatal("unmatched prefix denied")
	}
}

func TestCommunityList(t *testing.T) {
	c := route.MakeCommunity(100, 920)
	cl := &CommunityList{Name: "CL", Comms: []route.Community{c}}
	r := route.Route{}
	if cl.Matches(&r) {
		t.Fatal("no communities")
	}
	r.AddCommunity(c)
	if !cl.Matches(&r) {
		t.Fatal("community present")
	}
}

func TestMatchConjunction(t *testing.T) {
	pl := &PrefixList{Rules: []PrefixRule{{Action: Permit, Prefix: netaddr.MustParse("20.0.0.0/8")}}}
	c920 := route.MakeCommunity(100, 920)
	m := Match{PrefixList: pl, Community: c920}
	r := route.Route{Prefix: netaddr.MustParse("20.0.0.0/8")}
	if m.Matches(&r) {
		t.Fatal("missing community")
	}
	r.AddCommunity(c920)
	if !m.Matches(&r) {
		t.Fatal("both conditions hold")
	}
	r.Prefix = netaddr.MustParse("30.0.0.0/8")
	if m.Matches(&r) {
		t.Fatal("prefix condition fails")
	}
}

func TestMatchNoCommunityAndProtocol(t *testing.T) {
	c := route.MakeCommunity(100, 920)
	m := Match{NoCommunity: c}
	r := route.Route{}
	if !m.Matches(&r) {
		t.Fatal("absent community satisfies NoCommunity")
	}
	r.AddCommunity(c)
	if m.Matches(&r) {
		t.Fatal("present community violates NoCommunity")
	}
	st := route.Static
	mp := Match{Protocol: &st}
	if mp.Matches(&route.Route{Protocol: route.EBGP}) {
		t.Fatal("protocol mismatch")
	}
	if !mp.Matches(&route.Route{Protocol: route.Static}) {
		t.Fatal("protocol match")
	}
	ma := Match{ASInPath: 300}
	if ma.Matches(&route.Route{ASPath: []uint32{100}}) {
		t.Fatal("AS not in path")
	}
	if !ma.Matches(&route.Route{ASPath: []uint32{100, 300}}) {
		t.Fatal("AS in path")
	}
}

func TestSetApply(t *testing.T) {
	r := route.Route{LocalPref: 100}
	c1, c2 := route.MakeCommunity(1, 1), route.MakeCommunity(2, 2)
	r.AddCommunity(c1)
	s := Set{
		LocalPref: u32(300), Weight: u32(50), MED: u32(7),
		AddComms: []route.Community{c2}, DelComms: []route.Community{c1},
		PrependAS: []uint32{65000}, NextHopSelf: true,
	}
	s.Apply(&r, 42)
	if r.LocalPref != 300 || r.Weight != 50 || r.MED != 7 {
		t.Fatalf("scalar sets: %+v", r)
	}
	if r.HasCommunity(c1) || !r.HasCommunity(c2) {
		t.Fatal("community sets")
	}
	if r.ASPathString() != "65000" || r.NextHop != 42 {
		t.Fatal("prepend / next-hop-self")
	}
	// ClearComms wipes before adds.
	r2 := route.Route{}
	r2.AddCommunity(c1)
	Set{ClearComms: true, AddComms: []route.Community{c2}}.Apply(&r2, 0)
	if r2.HasCommunity(c1) || !r2.HasCommunity(c2) {
		t.Fatal("clear-then-add ordering")
	}
}

func TestRoutePolicyRun(t *testing.T) {
	c920 := route.MakeCommunity(100, 920)
	// The Figure 6 R3→R4 ingress policy: deny unless community 920.
	p := &RoutePolicy{Name: "r3-to-r4", Terms: []Term{
		{Seq: 10, Action: Deny, Match: Match{NoCommunity: c920}},
		{Seq: 20, Action: Permit},
	}}
	withC := route.Route{Prefix: netaddr.MustParse("20.0.0.0/8")}
	withC.AddCommunity(c920)
	if _, disp, seq := p.Run(withC, 0); disp != Permitted || seq != 20 {
		t.Fatalf("route with 920 must be permitted by seq 20, got %v/%d", disp, seq)
	}
	without := route.Route{Prefix: netaddr.MustParse("10.0.0.0/8")}
	if _, disp, seq := p.Run(without, 0); disp != Denied || seq != 10 {
		t.Fatalf("route without 920 must be denied by seq 10, got %v/%d", disp, seq)
	}
}

func TestRoutePolicyDefaultAndNil(t *testing.T) {
	p := &RoutePolicy{Name: "narrow", Terms: []Term{
		{Seq: 10, Action: Permit, Match: Match{Community: route.MakeCommunity(9, 9)}},
	}}
	r := route.Route{}
	if _, disp, seq := p.Run(r, 0); disp != DefaultAction || seq != -1 {
		t.Fatal("unmatched route must fall to DefaultAction")
	}
	var nilP *RoutePolicy
	if _, disp, _ := nilP.Run(r, 0); disp != DefaultAction {
		t.Fatal("nil policy is DefaultAction")
	}
	if nilP.String() != "<nil>" {
		t.Fatal("nil String")
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	p := &RoutePolicy{Terms: []Term{{Seq: 1, Action: Permit, Set: Set{LocalPref: u32(999)}}}}
	in := route.Route{LocalPref: 100}
	out, _, _ := p.Run(in, 0)
	if in.LocalPref != 100 || out.LocalPref != 999 {
		t.Fatal("Run must copy-on-write")
	}
}

// TestSetClausesCopyOnWrite: every slice-changing set clause, applied
// directly or through Run's permit, leaves a route sharing the rewritten
// route's slices as it was, the spare capacity of its backing arrays
// included — the rule that lets Run and the behavior pipelines skip a
// deep copy.
func TestSetClausesCopyOnWrite(t *testing.T) {
	c1, c2, c3 := route.MakeCommunity(1, 1), route.MakeCommunity(2, 2), route.MakeCommunity(3, 3)
	mk := func() route.Route {
		r := route.New(netaddr.MustParse("10.0.0.0/8"), route.EBGP, 1)
		r.ASPath = append(make([]uint32, 0, 16), 100, 200)
		r.Comms = append(make([]route.Community, 0, 16), c1, c3)
		return r
	}
	for _, tc := range []struct {
		name string
		set  Set
	}{
		{"ClearComms", Set{ClearComms: true}},
		{"DelComms", Set{DelComms: []route.Community{c1}}},
		{"DelCommsAbsent", Set{DelComms: []route.Community{c2}}},
		{"AddComms", Set{AddComms: []route.Community{c2}}},
		{"PrependAS", Set{PrependAS: []uint32{65000, 65000}}},
		{"All", Set{ClearComms: true, DelComms: []route.Community{c1}, AddComms: []route.Community{c2}, PrependAS: []uint32{65000}}},
	} {
		orig := mk()
		alias := orig
		tc.set.Apply(&alias, 9)
		pol := &RoutePolicy{Terms: []Term{{Seq: 10, Action: Permit, Set: tc.set}}}
		if _, disp, _ := pol.Run(orig, 9); disp != Permitted {
			t.Fatalf("%s: disposition %v", tc.name, disp)
		}
		if route.DiffAttrs(orig, mk()) != "" {
			t.Errorf("%s wrote the route it shares slices with: %v %v", tc.name, orig, orig.Comms)
		}
		for _, x := range orig.ASPath[len(orig.ASPath):cap(orig.ASPath)] {
			if x != 0 {
				t.Errorf("%s wrote the path's spare capacity", tc.name)
			}
		}
		for _, x := range orig.Comms[len(orig.Comms):cap(orig.Comms)] {
			if x != 0 {
				t.Errorf("%s wrote the communities' spare capacity", tc.name)
			}
		}
	}
}

func TestACL(t *testing.T) {
	dst := netaddr.MustParse("10.0.1.0/24")
	a := &ACL{Name: "101", Rules: []ACLRule{
		{Seq: 10, Action: Deny, Dst: dst},
		{Seq: 20, Action: Permit, Dst: netaddr.MustParse("10.0.0.0/8")},
	}}
	if d, seq := a.Run(0, netaddr.MustParse("10.0.1.5").Addr); d != Denied || seq != 10 {
		t.Fatal("deny rule")
	}
	if d, seq := a.Run(0, netaddr.MustParse("10.0.2.5").Addr); d != Permitted || seq != 20 {
		t.Fatal("permit rule")
	}
	if d, seq := a.Run(0, netaddr.MustParse("11.0.0.1").Addr); d != DefaultAction || seq != -1 {
		t.Fatal("unmatched falls to vendor default")
	}
	var nilACL *ACL
	if d, _ := nilACL.Run(0, 0); d != DefaultAction {
		t.Fatal("nil ACL is DefaultAction")
	}
}

func TestACLSrcMatch(t *testing.T) {
	a := &ACL{Rules: []ACLRule{
		{Seq: 1, Action: Deny, Src: netaddr.MustParse("192.168.0.0/16"), Dst: netaddr.Prefix{}},
	}}
	if d, _ := a.Run(netaddr.MustParse("192.168.1.1").Addr, 0); d != Denied {
		t.Fatal("src match")
	}
	if d, _ := a.Run(netaddr.MustParse("10.0.0.1").Addr, 0); d != DefaultAction {
		t.Fatal("src miss")
	}
}

// Property: a policy whose first term is an unconditional deny denies
// everything; unconditional permit permits everything.
func TestPropertyUnconditionalTerm(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := route.Route{
			Prefix:    netaddr.Make(rng.Uint32(), uint8(rng.Intn(33))),
			LocalPref: rng.Uint32() % 1000,
		}
		denyAll := &RoutePolicy{Terms: []Term{{Seq: 1, Action: Deny}}}
		permitAll := &RoutePolicy{Terms: []Term{{Seq: 1, Action: Permit}}}
		_, d1, _ := denyAll.Run(r, 0)
		_, d2, _ := permitAll.Run(r, 0)
		return d1 == Denied && d2 == Permitted
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: PrefixRule with GE..LE only matches lengths in range.
func TestPropertyPrefixRuleRange(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := netaddr.Make(rng.Uint32(), uint8(rng.Intn(17)))
		ge := base.Len + uint8(rng.Intn(8))
		le := ge + uint8(rng.Intn(8))
		if le > 32 {
			le = 32
		}
		if ge > le {
			ge = le
		}
		rule := PrefixRule{Prefix: base, GE: ge, LE: le}
		for i := 0; i < 20; i++ {
			p := netaddr.Make(base.Addr|rng.Uint32()&^netaddr.Mask(base.Len), base.Len+uint8(rng.Intn(int(33-base.Len))))
			want := p.Len >= ge && p.Len <= le
			if ge == 0 && le == 0 {
				want = p.Len == base.Len
			}
			if rule.Matches(p) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
