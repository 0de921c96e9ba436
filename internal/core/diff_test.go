package core

import (
	"slices"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
)

func assembleWAN(t *testing.T, w *gen.WAN) *Model {
	t.Helper()
	m, err := Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func generate(t *testing.T, p gen.Params) *gen.WAN {
	t.Helper()
	w, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// editConfig applies incremental lines to one device of a WAN snapshot.
func editConfig(t *testing.T, w *gen.WAN, device string, lines ...string) {
	t.Helper()
	d, err := config.ApplyUpdate(w.Snap[device], config.Update{Device: device, Lines: lines})
	if err != nil {
		t.Fatal(err)
	}
	w.Snap[device] = d
}

func kindItems(d *ModelDelta, k DeltaKind) []DeltaItem {
	var out []DeltaItem
	for _, it := range d.Items {
		if it.Kind == k {
			out = append(out, it)
		}
	}
	return out
}

// TestDiffSelfEmpty is the property test: two independent generations of
// the same WAN (and a model against itself) diff to the empty delta.
func TestDiffSelfEmpty(t *testing.T) {
	params := gen.Small()
	if !testing.Short() {
		params = gen.Medium()
	}
	m1 := assembleWAN(t, generate(t, params))
	m2 := assembleWAN(t, generate(t, params))
	if d := Diff(m1, m2); !d.Empty() {
		t.Fatalf("independent generations of the same params diff non-empty:\n%s", d)
	}
	if d := Diff(m1, m1); !d.Empty() {
		t.Fatalf("self-diff non-empty:\n%s", d)
	}
}

// TestDiffLinks pins the topology delta kinds: added, removed, and
// weight-changed links are all full invalidations.
func TestDiffLinks(t *testing.T) {
	w1 := generate(t, gen.Small())
	m1 := assembleWAN(t, w1)

	w2 := generate(t, gen.Small())
	ga, _ := w2.Net.NodeByName("gw-r0-0")
	gb, _ := w2.Net.NodeByName("gw-r1-0")
	w2.Net.MustAddLink(ga.ID, gb.ID, 35) // chord between never-linked routers
	m2 := assembleWAN(t, w2)

	d := Diff(m1, m2)
	if items := kindItems(d, DeltaLinkAdded); len(items) != 1 || !items[0].Full {
		t.Fatalf("want one full link-added item, got:\n%s", d)
	}
	if !d.Full() {
		t.Fatal("link addition must force full invalidation")
	}
	back := Diff(m2, m1)
	if items := kindItems(back, DeltaLinkRemoved); len(items) != 1 || !items[0].Full {
		t.Fatalf("want one full link-removed item, got:\n%s", back)
	}

	w3 := generate(t, gen.Small())
	w3.Net.Link(0).Weight += 7
	m3 := assembleWAN(t, w3)
	d = Diff(m1, m3)
	if items := kindItems(d, DeltaLinkChanged); len(items) != 1 || !items[0].Full {
		t.Fatalf("want one full link-changed item, got:\n%s", d)
	}
}

// TestDiffSessionChanges pins the session delta kinds: a neighbor
// attribute edit and a neighbor addition are device-taint-scoped items
// naming both endpoints, never full invalidations.
func TestDiffSessionChanges(t *testing.T) {
	w1 := generate(t, gen.Small())
	m1 := assembleWAN(t, w1)

	w2 := generate(t, gen.Small())
	editConfig(t, w2, "pe-r0-0",
		"router bgp 64500",
		" neighbor gw-r0-0 preference 30")
	m2 := assembleWAN(t, w2)
	d := Diff(m1, m2)
	items := kindItems(d, DeltaSessionChanged)
	if len(items) != 1 {
		t.Fatalf("want one session-changed item, got:\n%s", d)
	}
	it := items[0]
	if it.Device != "pe-r0-0" || it.Peer != "gw-r0-0" || !it.AllPrefixes || it.Full {
		t.Fatalf("session-changed scope wrong: %+v", it)
	}
	if d.Full() {
		t.Fatalf("session attribute edit must not force full invalidation:\n%s", d)
	}

	w3 := generate(t, gen.Small())
	editConfig(t, w3, "pe-r0-0",
		"router bgp 64500",
		" neighbor core-r1-0 remote-as 64500")
	m3 := assembleWAN(t, w3)
	d = Diff(m1, m3)
	if items := kindItems(d, DeltaSessionAdded); len(items) != 1 || !items[0].AllPrefixes {
		t.Fatalf("want one device-scoped session-added item, got:\n%s", d)
	}
	if items := kindItems(Diff(m3, m1), DeltaSessionRemoved); len(items) != 1 {
		t.Fatalf("want one session-removed item, got:\n%s", Diff(m3, m1))
	}
}

// TestDiffPolicyTermEdit pins the prefix-scoped policy comparison: a new
// prefix-list-matched term affects exactly the prefixes its list
// permits, and the delta names only those.
func TestDiffPolicyTermEdit(t *testing.T) {
	w1 := generate(t, gen.Small())
	m1 := assembleWAN(t, w1)
	target := netaddr.MustParse("10.0.0.0/24") // first announced prefix

	w2 := generate(t, gen.Small())
	editConfig(t, w2, "pe-r0-0",
		"ip prefix-list PTEST permit "+target.String(),
		"route-policy TAG permit 5",
		" match prefix-list PTEST",
		" set local-preference 150")
	m2 := assembleWAN(t, w2)

	d := Diff(m1, m2)
	if d.Full() {
		t.Fatalf("single-term policy edit must not force full invalidation:\n%s", d)
	}
	items := kindItems(d, DeltaPolicyChanged)
	if len(items) != 1 {
		t.Fatalf("want one policy-changed item, got:\n%s", d)
	}
	it := items[0]
	if it.Device != "pe-r0-0" || it.AllPrefixes {
		t.Fatalf("policy-changed scope wrong: %+v", it)
	}
	if len(it.Prefixes) != 1 || it.Prefixes[0] != target {
		t.Fatalf("policy-changed affected set %v, want exactly [%s]", it.Prefixes, target)
	}
}

// TestDiffPrefixListEdit pins the flip-set computation: extending a
// referenced prefix-list reports exactly the candidate prefixes whose
// verdict flips, alongside the induced policy delta.
func TestDiffPrefixListEdit(t *testing.T) {
	params := gen.Small()
	params.PolicyDiversity = 2 // BUCKET0/BUCKET1 lists referenced by TAG
	w1 := generate(t, params)
	m1 := assembleWAN(t, w1)

	// 10.0.1.0/24 is the second announced prefix, bucketed into BUCKET1;
	// permitting it in BUCKET0 flips BUCKET0's verdict for it.
	flip := netaddr.MustParse("10.0.1.0/24")
	w2 := generate(t, params)
	editConfig(t, w2, "pe-r0-0", "ip prefix-list BUCKET0 permit "+flip.String())
	m2 := assembleWAN(t, w2)

	d := Diff(m1, m2)
	if d.Full() {
		t.Fatalf("prefix-list rule edit must not force full invalidation:\n%s", d)
	}
	items := kindItems(d, DeltaPrefixListChanged)
	if len(items) != 1 {
		t.Fatalf("want one prefix-list-changed item, got:\n%s", d)
	}
	if got := items[0].Prefixes; len(got) != 1 || got[0] != flip {
		t.Fatalf("prefix-list flip set %v, want exactly [%s]", got, flip)
	}
	// The list is referenced by TAG, so the change also surfaces as a
	// policy delta scoped to the same prefix.
	pol := kindItems(d, DeltaPolicyChanged)
	if len(pol) != 1 || len(pol[0].Prefixes) != 1 || pol[0].Prefixes[0] != flip {
		t.Fatalf("want policy-changed scoped to %s, got:\n%s", flip, d)
	}
}

// TestDiffOriginChange pins the origin-level comparison: a new network
// statement on a gateway produces a prefix-scoped origin-changed item.
func TestDiffOriginChange(t *testing.T) {
	w1 := generate(t, gen.Small())
	m1 := assembleWAN(t, w1)

	added := netaddr.MustParse("10.0.99.0/24")
	w2 := generate(t, gen.Small())
	editConfig(t, w2, "gw-r0-0",
		"router bgp 65001",
		" network "+added.String())
	m2 := assembleWAN(t, w2)

	d := Diff(m1, m2)
	if d.Full() {
		t.Fatalf("origin change must not force full invalidation:\n%s", d)
	}
	items := kindItems(d, DeltaOriginChanged)
	if len(items) != 1 || items[0].Device != "gw-r0-0" {
		t.Fatalf("want one origin-changed item on gw-r0-0, got:\n%s", d)
	}
	found := false
	for _, p := range items[0].Prefixes {
		if p == added {
			found = true
		}
	}
	if !found {
		t.Fatalf("origin-changed affected set %v misses %s", items[0].Prefixes, added)
	}
}

// TestDiffStaticChange pins static-route deltas: prefix-scoped to the
// announced prefixes the changed statics overlap.
func TestDiffStaticChange(t *testing.T) {
	w1 := generate(t, gen.Small())
	m1 := assembleWAN(t, w1)

	target := netaddr.MustParse("10.0.0.0/24")
	w2 := generate(t, gen.Small())
	editConfig(t, w2, "pe-r0-0", "ip route "+target.String()+" core-r0-0 preference 200")
	m2 := assembleWAN(t, w2)

	d := Diff(m1, m2)
	if d.Full() {
		t.Fatalf("static edit must not force full invalidation:\n%s", d)
	}
	items := kindItems(d, DeltaStaticChanged)
	if len(items) != 1 || items[0].Device != "pe-r0-0" {
		t.Fatalf("want one static-changed item on pe-r0-0, got:\n%s", d)
	}
	if got := items[0].Prefixes; len(got) != 1 || got[0] != target {
		t.Fatalf("static-changed affected set %v, want exactly [%s]", got, target)
	}
}

// TestDiffKindsHistogram sanity-checks the aggregate view used by the
// invalidation stats: kinds are counted and String mentions each item.
func TestDiffKindsHistogram(t *testing.T) {
	w1 := generate(t, gen.Small())
	m1 := assembleWAN(t, w1)
	w2 := generate(t, gen.Small())
	editConfig(t, w2, "pe-r0-0", "ip route 10.0.0.0/24 core-r0-0 preference 200")
	editConfig(t, w2, "pe-r1-0",
		"router bgp 64500",
		" neighbor gw-r1-0 preference 40")
	m2 := assembleWAN(t, w2)
	d := Diff(m1, m2)
	kinds := d.Kinds()
	if kinds[string(DeltaStaticChanged)] != 1 || kinds[string(DeltaSessionChanged)] != 1 {
		t.Fatalf("histogram %v, want one static-changed and one session-changed", kinds)
	}
	if d.String() == "" || d.Empty() {
		t.Fatal("delta should be non-empty with a readable String")
	}
}

// BenchmarkDiffOneDevice times the diff behind an incremental sweep after
// one policy edit on gen.Medium: against the baseline the capturing
// process kept (every device but the edited one shared, so Diff compares
// one) and against the same baseline re-parsed from its text (a store
// loaded off disk, where Diff compares every device).
func BenchmarkDiffOneDevice(b *testing.B) {
	w, err := gen.Generate(gen.Medium())
	if err != nil {
		b.Fatal(err)
	}
	p := gen.Perturb(w, 3, 1)[0]
	if p.Kind != "policy" {
		b.Fatalf("first perturbation is a %s edit, want policy", p.Kind)
	}
	edited, err := w.Snap.Apply([]config.Update{{Device: p.Device, Lines: p.Lines}})
	if err != nil {
		b.Fatal(err)
	}
	reparsed := config.Snapshot{}
	for name, d := range w.Snap {
		if reparsed[name], err = config.Parse(config.Write(d)); err != nil {
			b.Fatal(err)
		}
	}
	assemble := func(snap config.Snapshot) *Model {
		m, err := Assemble(w.Net, snap, behavior.TrueProfiles())
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	cur := assemble(edited)
	for _, bc := range []struct {
		name     string
		old      *Model
		compared int
	}{
		{"shared", assemble(w.Snap), 1},
		{"reparsed", assemble(reparsed), w.Net.NumNodes()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				d := Diff(bc.old, cur)
				if d.Empty() || d.Full() || d.DevicesCompared != bc.compared {
					b.Fatalf("one policy edit diffed to %d compared devices, want %d:\n%s", d.DevicesCompared, bc.compared, d)
				}
			}
		})
	}
}

// partition renders a model's classes as their member lists.
func partition(m *Model) [][]string {
	var out [][]string
	for _, c := range m.Classes() {
		out = append(out, c.MemberStrings())
	}
	return out
}

// TestUnreferencedPolicyIsInert pins the rule for a route policy no
// neighbor and no redistribution names: adding, editing or removing it
// yields delta items with no scope and leaves the class partition as it
// was, though its prefix list tells a class's members apart. Attaching
// it — on a neighbor, or on a redistribution — yields a scoped item, and
// the class splits where its permit bits differ.
func TestUnreferencedPolicyIsInert(t *testing.T) {
	const dev = "pe-r0-0"
	w := generate(t, gen.Small())
	base := assembleWAN(t, w)
	// target is a non-representative member of a multi-member class: the
	// dead policy's prefix list permits it and none of its classmates.
	var target string
	var mates []string
	for _, c := range base.Classes() {
		if len(c.Members) > 1 {
			target, mates = c.Members[1].String(), c.MemberStrings()
			break
		}
	}
	if target == "" {
		t.Fatal("gen.Small has no multi-member class")
	}
	dead := []string{
		"ip prefix-list PDEAD permit " + target,
		"route-policy DEAD permit 10",
		" match prefix-list PDEAD",
		" set local-preference 150",
		"route-policy DEAD permit 20",
	}
	edits := []struct {
		name  string
		lines []string
		kind  DeltaKind
	}{
		{"add", dead, DeltaPolicyAdded},
		{"edit", []string{"route-policy DEAD permit 30", " set med 7"}, DeltaPolicyChanged},
		{"remove", []string{"no route-policy DEAD"}, DeltaPolicyRemoved},
	}
	prev := base
	for _, e := range edits {
		editConfig(t, w, dev, e.lines...)
		next := assembleWAN(t, w)
		d := Diff(prev, next)
		if len(kindItems(d, e.kind)) != 1 {
			t.Fatalf("%s: want one %s item, got:\n%s", e.name, e.kind, d)
		}
		for _, it := range d.Items {
			if it.Full || it.AllPrefixes || len(it.Prefixes) > 0 {
				t.Fatalf("%s: an unattached policy edit must have no scope, got:\n%s", e.name, d)
			}
		}
		if !slices.EqualFunc(partition(next), partition(base), slices.Equal) {
			t.Fatalf("%s: partition %v, want %v", e.name, partition(next), partition(base))
		}
		prev = next
	}

	// split is the partition an attached DEAD gives: base with target on
	// its own.
	split := func(m *Model) {
		t.Helper()
		for _, c := range m.Classes() {
			members := c.MemberStrings()
			if slices.Contains(members, target) && !slices.Equal(members, []string{target}) {
				t.Fatalf("class of %s is %v, want it alone (its classmates were %v)", target, members, mates)
			}
		}
	}
	w = generate(t, gen.Small())
	editConfig(t, w, dev, dead...)
	unattached := assembleWAN(t, w)
	for _, a := range []struct {
		name  string
		lines []string
		kind  DeltaKind
	}{
		{"neighbor", []string{"router bgp 64500", " neighbor gw-r0-0 route-policy DEAD in"}, DeltaSessionChanged},
		{"redistribute", []string{"ip route 172.16.9.0/24 core-r0-0", "router bgp 64500", " redistribute static route-policy DEAD"}, DeltaOriginChanged},
	} {
		aw := generate(t, gen.Small())
		editConfig(t, aw, dev, dead...)
		editConfig(t, aw, dev, a.lines...)
		attached := assembleWAN(t, aw)
		d := Diff(unattached, attached)
		items := kindItems(d, a.kind)
		if len(items) == 0 || d.Full() || !(items[0].AllPrefixes || len(items[0].Prefixes) > 0) {
			t.Fatalf("%s: attaching DEAD wants a scoped %s item, got:\n%s", a.name, a.kind, d)
		}
		split(attached)
	}
}
