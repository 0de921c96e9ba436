package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hoyan/internal/netaddr"
)

func TestProtocolString(t *testing.T) {
	for p, want := range map[Protocol]string{
		Connected: "connected", Static: "static", EBGP: "ebgp", IBGP: "ibgp", ISIS: "isis",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if Protocol(99).String() != "protocol(99)" {
		t.Error("unknown protocol rendering")
	}
}

func TestCommunityPacking(t *testing.T) {
	c := MakeCommunity(100, 920)
	if c.String() != "100:920" {
		t.Fatalf("community = %q", c.String())
	}
}

func TestIsPrivateAS(t *testing.T) {
	if IsPrivateAS(64511) || !IsPrivateAS(64512) || !IsPrivateAS(65534) || IsPrivateAS(65535) {
		t.Fatal("private AS bounds")
	}
}

func TestNewDefaults(t *testing.T) {
	r := New(netaddr.MustParse("10.0.0.0/8"), EBGP, 3)
	if r.LocalPref != DefaultLocalPref || r.NextHop != 3 || r.OriginNode != 3 {
		t.Fatalf("defaults %+v", r)
	}
	if r.AdminPref != 20 {
		t.Fatal("eBGP admin pref 20")
	}
	if New(r.Prefix, Static, 0).AdminPref != 1 {
		t.Fatal("static admin pref 1")
	}
	if DefaultAdminPref(Protocol(77)) != 255 {
		t.Fatal("unknown protocol admin pref 255")
	}
}

// sharedRoute returns a route and a copy of it whose slices alias the
// route's and have spare capacity, so that a mutator appending in place
// would write into the route's backing arrays.
func sharedRoute() (orig, alias Route) {
	path := make([]uint32, 4, 16)
	copy(path, []uint32{64512, 100, 64513, 200})
	comms := make([]Community, 3, 16)
	copy(comms, []Community{MakeCommunity(1, 1), MakeCommunity(1, 2), MakeCommunity(1, 3)})
	ext := make([]uint64, 1, 8)
	ext[0] = 7
	orig = New(netaddr.MustParse("10.0.0.0/8"), EBGP, 1)
	orig.ASPath, orig.Comms, orig.ExtComms = path, comms, ext
	return orig, orig
}

// TestMutatorsCopyOnWrite pins the rule route values rest on: copies
// share their slices, so no mutator writes a slice in place. Each mutator
// runs on a copy whose slices alias another route's and have room to
// append; the other route, and the backing arrays past its length, must
// stay as they were.
func TestMutatorsCopyOnWrite(t *testing.T) {
	c12, c9 := MakeCommunity(1, 2), MakeCommunity(1, 9)
	for _, m := range []struct {
		name   string
		mutate func(*Route)
	}{
		{"PrependAS", func(r *Route) { r.PrependAS(300) }},
		{"RemovePrivateAll", (*Route).RemovePrivateAll},
		{"RemovePrivateLeading", (*Route).RemovePrivateLeading},
		{"AddCommunity", func(r *Route) { r.AddCommunity(MakeCommunity(0, 5)) }},
		{"AddCommunityPresent", func(r *Route) { r.AddCommunity(c12) }},
		{"DeleteCommunity", func(r *Route) { r.DeleteCommunity(c12) }},
		{"DeleteCommunityAbsent", func(r *Route) { r.DeleteCommunity(c9) }},
		{"ClearCommunities", (*Route).ClearCommunities},
		{"ClearExtCommunities", (*Route).ClearExtCommunities},
		{"DeleteThenAddCommunity", func(r *Route) { r.DeleteCommunity(c12); r.AddCommunity(c9) }},
	} {
		orig, alias := sharedRoute()
		want, _ := sharedRoute()
		m.mutate(&alias)
		if DiffAttrs(orig, want) != "" {
			t.Errorf("%s wrote the route it shares slices with: %v %v, want %v %v", m.name, orig, orig.Comms, want, want.Comms)
		}
		// An in-place append past the shared length is invisible to orig's
		// length but not to the next append: the spare capacity must be
		// untouched too.
		if spare := orig.ASPath[:cap(orig.ASPath)][len(orig.ASPath):]; !allZero(spare) {
			t.Errorf("%s wrote the path's spare capacity: %v", m.name, spare)
		}
		if spare := orig.Comms[:cap(orig.Comms)][len(orig.Comms):]; !allZero(spare) {
			t.Errorf("%s wrote the communities' spare capacity: %v", m.name, spare)
		}
	}
}

func allZero[T comparable](s []T) bool {
	var zero T
	for _, x := range s {
		if x != zero {
			return false
		}
	}
	return true
}

func TestASPathOps(t *testing.T) {
	r := Route{ASPath: []uint32{200, 300}}
	r.PrependAS(100)
	if r.ASPathString() != "100-200-300" {
		t.Fatalf("path %q", r.ASPathString())
	}
	if !r.HasASLoop(200) || r.HasASLoop(400) {
		t.Fatal("loop check")
	}
	r2 := Route{ASPath: []uint32{100, 100, 200}}
	if r2.CountAS(100) != 2 {
		t.Fatal("CountAS")
	}
	if (&Route{}).ASPathString() != "i" {
		t.Fatal("empty path renders i")
	}
}

func TestRemovePrivateVariants(t *testing.T) {
	// §1's motivating VSB: Vendor A removes all private ASes; Vendor B
	// removes only the leading run.
	mk := func() Route {
		return Route{ASPath: []uint32{64512, 64513, 100, 64514, 200}}
	}
	a := mk()
	a.RemovePrivateAll()
	if a.ASPathString() != "100-200" {
		t.Fatalf("vendor A semantics: %q", a.ASPathString())
	}
	b := mk()
	b.RemovePrivateLeading()
	if b.ASPathString() != "100-64514-200" {
		t.Fatalf("vendor B semantics: %q", b.ASPathString())
	}
}

func TestCommunityOps(t *testing.T) {
	r := Route{}
	c1, c2 := MakeCommunity(100, 920), MakeCommunity(100, 30)
	r.AddCommunity(c1)
	r.AddCommunity(c2)
	r.AddCommunity(c1) // idempotent
	if len(r.Comms) != 2 || r.Comms[0] != c2 || r.Comms[1] != c1 {
		t.Fatalf("comms %v (must be sorted, deduped)", r.Comms)
	}
	if !r.HasCommunity(c1) {
		t.Fatal("HasCommunity")
	}
	r.DeleteCommunity(c2)
	if r.HasCommunity(c2) || len(r.Comms) != 1 {
		t.Fatal("DeleteCommunity")
	}
	r.ClearCommunities()
	if len(r.Comms) != 0 {
		t.Fatal("ClearCommunities")
	}
	r.ExtComms = []uint64{1}
	r.ClearExtCommunities()
	if len(r.ExtComms) != 0 {
		t.Fatal("ClearExtCommunities")
	}
}

func TestBetterChain(t *testing.T) {
	base := func() Route {
		return Route{Protocol: EBGP, AdminPref: 20, LocalPref: 100, ASPath: []uint32{1, 2}}
	}
	cases := []struct {
		name   string
		mutate func(*Route) // makes the route better than base
	}{
		{"weight", func(r *Route) { r.Weight = 100 }},
		{"local-pref", func(r *Route) { r.LocalPref = 300 }},
		{"igp-weight", func(r *Route) { r.IGPWeight = 0 }}, // vs base with 10
		{"as-path", func(r *Route) { r.ASPath = []uint32{1} }},
		{"origin", func(r *Route) { r.OriginAtt = OriginIGP }}, // vs EGP base
		{"med", func(r *Route) { r.MED = 0 }},                  // vs 10
	}
	for _, c := range cases {
		a, b := base(), base()
		switch c.name {
		case "igp-weight":
			b.IGPWeight = 10
		case "origin":
			b.OriginAtt = OriginEGP
		case "med":
			b.MED = 10
		}
		c.mutate(&a)
		if !Better(a, b, 1, 1) {
			t.Errorf("%s: a must beat b", c.name)
		}
		if Better(b, a, 1, 1) {
			t.Errorf("%s: b must not beat a", c.name)
		}
	}
	// Admin preference applies only against non-BGP protocols: a static
	// with lower preference beats eBGP, and a worse preference loses.
	st := Route{Protocol: Static, AdminPref: 1}
	eb := base()
	if !Better(st, eb, 1, 1) || Better(eb, st, 1, 1) {
		t.Error("static pref 1 must beat eBGP pref 20")
	}
	st.AdminPref = 150
	if Better(st, eb, 1, 1) || !Better(eb, st, 1, 1) {
		t.Error("static pref 150 must lose to eBGP pref 20")
	}
	// Within BGP, admin preference is ignored (BGP decision process).
	hiPref, loPref := base(), base()
	hiPref.AdminPref, loPref.AdminPref = 200, 20
	hiPref.LocalPref = 500
	if !Better(hiPref, loPref, 1, 1) {
		t.Error("local-pref must dominate admin-pref between BGP routes")
	}
	// eBGP over iBGP.
	a, b := base(), base()
	b.Protocol = IBGP
	b.AdminPref = a.AdminPref // isolate the protocol rule
	if !Better(a, b, 1, 1) {
		t.Error("eBGP must beat iBGP")
	}
	// Router-ID tie break.
	a, b = base(), base()
	if !Better(a, b, 1, 2) || Better(a, b, 2, 1) {
		t.Error("router-id tie break")
	}
}

// TestFigure1WeightOverridesLocalPref checks the semantics the Figure 1
// racing example depends on: larger weight overrides larger local
// preference.
func TestFigure1WeightOverridesLocalPref(t *testing.T) {
	fromC := Route{Protocol: EBGP, AdminPref: 20, LocalPref: 300, Weight: 100, ASPath: []uint32{200}}
	fromD := Route{Protocol: EBGP, AdminPref: 20, LocalPref: 500, Weight: 0, ASPath: []uint32{200}}
	if !Better(fromC, fromD, 1, 1) {
		t.Fatal("weight 100 must override local-pref 500")
	}
}

func TestSameAttrsAndDiff(t *testing.T) {
	a := Route{Prefix: netaddr.MustParse("10.0.0.0/8"), ASPath: []uint32{1}, Comms: []Community{5}}
	b := a
	if !SameAttrs(a, b) || DiffAttrs(a, b) != "" {
		t.Fatal("copies must compare equal")
	}
	b.Comms = []Community{6}
	if SameAttrs(a, b) {
		t.Fatal("community diff must be detected")
	}
	if DiffAttrs(a, b) != "community" {
		t.Fatalf("DiffAttrs = %q", DiffAttrs(a, b))
	}
	c := a
	c.NextHop = 9
	if DiffAttrs(a, c) != "next-hop" {
		t.Fatalf("DiffAttrs = %q", DiffAttrs(a, c))
	}
	d := a
	d.ASPath = []uint32{1, 2}
	if DiffAttrs(a, d) != "as-path" {
		t.Fatalf("DiffAttrs = %q (as-path length differs)", DiffAttrs(a, d))
	}
	e := a
	e.ExtComms = []uint64{3}
	if DiffAttrs(a, e) != "ext-community" {
		t.Fatalf("DiffAttrs = %q", DiffAttrs(a, e))
	}
}

func randomRoute(rng *rand.Rand) Route {
	r := Route{
		Prefix:    netaddr.Make(rng.Uint32(), uint8(rng.Intn(33))),
		Protocol:  Protocol(rng.Intn(5)),
		LocalPref: uint32(rng.Intn(4)) * 100,
		Weight:    uint32(rng.Intn(3)) * 50,
		MED:       uint32(rng.Intn(3)),
		OriginAtt: Origin(rng.Intn(3)),
		AdminPref: uint32(rng.Intn(4)),
		IGPWeight: uint32(rng.Intn(3)) * 10,
	}
	for i := 0; i < rng.Intn(4); i++ {
		r.ASPath = append(r.ASPath, uint32(rng.Intn(5)+1))
	}
	return r
}

// Property: Better is irreflexive and asymmetric for arbitrary routes, and
// transitive within a protocol class (all-BGP or all-non-BGP). Across
// classes routers use two-stage selection, which core.rank implements with
// an explicit merge — a pairwise comparator cannot be transitive there.
func TestPropertyBetterStrictOrder(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randomRoute(rng), randomRoute(rng), randomRoute(rng)
		ra, rb, rc := uint32(rng.Intn(3)), uint32(rng.Intn(3)), uint32(rng.Intn(3))
		if Better(a, a, ra, ra) {
			return false
		}
		if Better(a, b, ra, rb) && Better(b, a, rb, ra) {
			return false
		}
		// Force one class for the transitivity check.
		if rng.Intn(2) == 0 {
			a.Protocol, b.Protocol, c.Protocol = EBGP, IBGP, EBGP
		} else {
			a.Protocol, b.Protocol, c.Protocol = Static, ISIS, Static
		}
		if Better(a, b, ra, rb) && Better(b, c, rb, rc) && !Better(a, c, ra, rc) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: DiffAttrs is empty iff SameAttrs.
func TestPropertyDiffConsistentWithSame(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomRoute(rng), randomRoute(rng)
		return (DiffAttrs(a, b) == "") == SameAttrs(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: RemovePrivateAll leaves no private ASes; RemovePrivateLeading
// leaves a path whose first element (if any) is non-private.
func TestPropertyRemovePrivate(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var path []uint32
		for i := 0; i < rng.Intn(8); i++ {
			if rng.Intn(2) == 0 {
				path = append(path, uint32(PrivateASMin+rng.Intn(100)))
			} else {
				path = append(path, uint32(rng.Intn(1000)+1))
			}
		}
		a := Route{ASPath: append([]uint32(nil), path...)}
		a.RemovePrivateAll()
		for _, as := range a.ASPath {
			if IsPrivateAS(as) {
				return false
			}
		}
		b := Route{ASPath: append([]uint32(nil), path...)}
		b.RemovePrivateLeading()
		if len(b.ASPath) > 0 && IsPrivateAS(b.ASPath[0]) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
