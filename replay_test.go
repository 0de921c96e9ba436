package hoyan

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
	"hoyan/internal/logic"
	"hoyan/internal/netaddr"
)

// TestReplayByMemberMatchesCold pins the per-member replay rule
// (replayRule): a class replays the baseline record of any member whose
// simulation the edit left alone, whatever the edit did to the class's
// membership. Over a series of edits that split, merge and grow a class
// and that define, drop and attach a policy, every incremental sweep's
// report and captured store equal a cold sweep's, and the sweep
// re-simulates exactly the classes the rule names. The series runs
// against the store the previous step captured in memory and against the
// same store saved and loaded, and once more with every replayed class
// and replicated member audited (AuditSample 1), which fails the sweep on
// any divergence.
func TestReplayByMemberMatchesCold(t *testing.T) {
	cases := []struct {
		name   string
		params gen.Params
		k      int
	}{
		{"small", gen.Small(), 2},
		{"medium", gen.Medium(), 1},
	}
	for _, tc := range cases {
		if tc.name != "small" && (testing.Short() || raceEnabled) {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, loaded := range []bool{false, true} {
				for _, audit := range []float64{0, 1} {
					t.Run(fmt.Sprintf("loaded=%v/audit=%v", loaded, audit), func(t *testing.T) {
						replaySeries(t, tc.params, tc.k, loaded, audit)
					})
				}
			}
		})
	}
}

// replaySeries runs the edit series of TestReplayByMemberMatchesCold.
func replaySeries(t *testing.T, params gen.Params, k int, loaded bool, audit float64) {
	n, _ := wanNetworkFrom(t, params)
	opts := Options{K: k}
	_, store, err := n.SweepBaseline(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")

	// The class the series edits: the first with two or more members. m
	// is its last member; origin is the device announcing the class's
	// representative, as whose AS the new network statement is written.
	model, err := core.Assemble(n.net, n.snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	var class []string
	for _, c := range model.Classes() {
		if len(c.Members) > 1 {
			class = c.MemberStrings()
			break
		}
	}
	if class == nil {
		t.Fatal("no multi-member class")
	}
	m := class[len(class)-1]
	var origin string
	var originAS uint32
	for name, dev := range n.snap {
		if dev.BGP != nil && slices.ContainsFunc(dev.BGP.Networks, func(p netaddr.Prefix) bool { return p.String() == class[0] }) {
			origin, originAS = name, dev.BGP.AS
		}
	}
	const pe, nh, peer = "pe-r0-0", "core-r0-0", "gw-r0-0"
	dead := []string{
		"ip prefix-list PDEAD permit " + m,
		"route-policy DEAD permit 10",
		" match prefix-list PDEAD",
		" set local-preference 150",
		"route-policy DEAD permit 20",
	}

	steps := []struct {
		desc   string
		device string
		lines  []string
		// dirty is the exact count of classes to re-simulate, or -1 for
		// "at least one"; rematched the classes that replay a record of
		// other members (checked when dirty is exact).
		dirty, rematched int
	}{
		{"a static for " + m + " splits its class", pe,
			[]string{fmt.Sprintf("ip route %s %s preference 250", m, nh)}, 1, 1},
		{"its rollback merges the class", pe,
			[]string{fmt.Sprintf("no ip route %s %s", m, nh)}, 0, 1},
		{"a new network statement joins the class", origin,
			[]string{fmt.Sprintf("router bgp %d", originAS), " network 10.250.0.0/24"}, 0, 1},
		{"a policy nothing attaches is defined", pe, dead, 0, 0},
		{"and dropped", pe, []string{"no route-policy DEAD"}, 0, 0},
		{"a policy is attached", pe,
			append(slices.Clone(dead[1:]), "router bgp 64500", " neighbor "+peer+" route-policy DEAD in"), -1, 0},
	}
	for _, s := range steps {
		if err := n.ApplyUpdate(s.device, s.lines...); err != nil {
			t.Fatalf("%s: %v", s.desc, err)
		}
		base := store
		if loaded {
			if err := store.Save(path); err != nil {
				t.Fatal(err)
			}
			if base, err = LoadResultStore(path); err != nil {
				t.Fatal(err)
			}
		}
		_, reg, _ := opts.resolve()
		if got, want := n.planHash(reg, n.configTexts(base)), dist.ModelHash(n.net, n.snap); got != want {
			t.Fatalf("%s: plan hash %s, want %s", s.desc, got, want)
		}
		iopts := opts
		iopts.Baseline, iopts.AuditSample = base, audit
		incr, next, err := n.SweepBaseline(iopts, 2)
		if err != nil {
			t.Fatalf("%s: incremental sweep: %v", s.desc, err)
		}
		cold, coldStore, err := n.SweepBaseline(opts, 2)
		if err != nil {
			t.Fatalf("%s: cold sweep: %v", s.desc, err)
		}
		diffSweepReports(t, s.desc, cold, incr)
		if why := storeDiff(n, next, coldStore); why != "" {
			t.Fatalf("%s: the incremental capture differs from the cold one: %s", s.desc, why)
		}
		inv := incr.Invalidation
		if inv == nil || inv.FullInvalidation {
			t.Fatalf("%s: invalidation %+v", s.desc, inv)
		}
		switch {
		case s.dirty < 0 && inv.ClassesDirty == 0:
			t.Fatalf("%s: nothing re-simulated\n%s", s.desc, incr.Delta)
		case s.dirty >= 0 && (inv.ClassesDirty != s.dirty || inv.ClassesRematched != s.rematched):
			t.Fatalf("%s: %d dirty, %d rematched; want %d and %d\n%s",
				s.desc, inv.ClassesDirty, inv.ClassesRematched, s.dirty, s.rematched, incr.Delta)
		}
		if audit > 0 && inv.ReplaysAudited != inv.ClassesReplayed {
			t.Fatalf("%s: %d of %d replays audited", s.desc, inv.ReplaysAudited, inv.ClassesReplayed)
		}
		store = next
	}
}

// storeDiff compares two captures of n: byte for byte apart from each
// record's conditions, which must be equivalent root by root. (Two passes
// over one class can export equivalent conditions in different node
// orders, depending on what their executor's factory ran before.)
func storeDiff(n *Network, a, b *ResultStore) string {
	if len(a.Classes) != len(b.Classes) {
		return fmt.Sprintf("%d classes, want %d", len(a.Classes), len(b.Classes))
	}
	f := logic.NewFactoryOrdered(n.net.VarOrder())
	strip := func(st *ResultStore) (*ResultStore, []*logic.Portable) {
		out := *st
		out.Classes = slices.Clone(st.Classes)
		conds := make([]*logic.Portable, len(out.Classes))
		for i := range out.Classes {
			conds[i], out.Classes[i].Conds = out.Classes[i].Conds, nil
		}
		return &out, conds
	}
	sa, ca := strip(a)
	sb, cb := strip(b)
	ja, err := json.Marshal(sa)
	if err != nil {
		return err.Error()
	}
	jb, err := json.Marshal(sb)
	if err != nil {
		return err.Error()
	}
	if string(ja) != string(jb) {
		return "the stores differ outside their conditions"
	}
	for i := range ca {
		if (ca[i] == nil) != (cb[i] == nil) {
			return fmt.Sprintf("class %v: conditions present in one store only", a.Classes[i].Members)
		}
		if ca[i] == nil {
			continue
		}
		x, y := ca[i].Import(f), cb[i].Import(f)
		if len(x) != len(y) {
			return fmt.Sprintf("class %v: %d condition roots, want %d", a.Classes[i].Members, len(x), len(y))
		}
		for r := range x {
			if !f.Equivalent(x[r], y[r]) {
				return fmt.Sprintf("class %v: condition root %d is not equivalent", a.Classes[i].Members, r)
			}
		}
	}
	return ""
}
