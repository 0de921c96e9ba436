package hoyan

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/igp"
)

// TestVerifierBuildsItsSharedOnFirstQuery pins when a Verifier runs IS-IS
// fixpoints: never when it is built, with or without a baseline; on its
// first route query, every destination of the memo when it starts cold or
// from a memo built for other IGP inputs, and none when its baseline's
// memo is for this network; never on a later query. A resweep commit
// builds its Verifier from the store it just swept, so it runs none.
func TestVerifierBuildsItsSharedOnFirstQuery(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	n := NetworkFrom(w.Net, w.Snap)
	count := func(f func()) int {
		before := igp.Propagations()
		f()
		return int(igp.Propagations() - before)
	}
	_, store, err := n.SweepBaseline(Options{K: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, otherK, err := n.SweepBaseline(Options{K: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	dsts := store.igp.NumDestinations()
	prefixes, router := w.Prefixes(), w.MANs[0]
	for _, tc := range []struct {
		name     string
		baseline *ResultStore
		first    int
	}{
		{"cold", nil, dsts},
		{"baseline", store, 0},
		{"baseline at K=2", otherK, dsts},
	} {
		var v *Verifier
		if got := count(func() { v, err = n.Verifier(Options{K: 1, Baseline: tc.baseline}) }); err != nil || got != 0 {
			t.Fatalf("%s: building the Verifier ran %d IGP propagations (%v), want 0", tc.name, got, err)
		}
		for i, want := range []int{tc.first, 0} {
			if got := count(func() { _, err = v.RouteReach(prefixes[i].String(), router) }); err != nil || got != want {
				t.Fatalf("%s: route query %d ran %d IGP propagations (%v), want %d", tc.name, i+1, got, err, want)
			}
		}
	}
}

// TestTopologyEditLeavesItsHolders pins the sharing rule: a topology a
// model or a caller holds is never edited in place, and neither is a
// configuration map a caller or another Network holds. A Verifier built
// before AddRouter and AddLink, and first queried after them, answers as
// one queried before them; a Verifier built after them sees the edit; an
// edit of a Network wrapping a caller's topology and map (NetworkFrom)
// leaves both as they were; and after Clone, a config edit of either
// network leaves the other's map as it was.
func TestTopologyEditLeavesItsHolders(t *testing.T) {
	n := figure4Net(t)
	ref, err := n.Verifier(Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RouteReach("10.0.0.0/8", "D")
	if err != nil {
		t.Fatal(err)
	}
	v, err := n.Verifier(Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	n.AddRouter(Router{Name: "E", AS: 500, Vendor: "alpha"})
	n.AddLink("D", "E", 10)
	n.SetConfig("E", "hostname E\nrouter bgp 500\n neighbor D remote-as 400\n")
	if err := n.ApplyUpdate("D", "router bgp 400", " neighbor E remote-as 500"); err != nil {
		t.Fatal(err)
	}

	got, err := v.RouteReach("10.0.0.0/8", "D")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || len(v.Routers()) != 4 {
		t.Fatalf("a Verifier built before the edit answers %+v over %v, want %+v over A-D", got, v.Routers(), want)
	}
	edited, err := n.Verifier(Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := edited.RouteReach("10.0.0.0/8", "E"); err != nil || !rep.Reachable || rep.MinFailures != 1 {
		t.Fatalf("a Verifier built after the edit answers %+v (%v) at E, want reachable, broken by 1 failure", rep, err)
	}

	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	links := w.Net.NumLinks()
	m := NetworkFrom(w.Net, w.Snap)
	m.AddLink(w.PEs[0], w.MANs[0], 10)
	if w.Net.NumLinks() != links || m.net.NumLinks() != links+1 {
		t.Fatalf("AddLink after NetworkFrom: the caller's topology has %d links, the network's %d; want %d and %d",
			w.Net.NumLinks(), m.net.NumLinks(), links, links+1)
	}

	pe := w.PEs[0]
	caller := maps.Clone(w.Snap)
	bgp := fmt.Sprintf("router bgp %d", caller[pe].BGP.AS)
	originate := func(n *Network, p string) {
		t.Helper()
		if err := n.ApplyUpdate(pe, bgp, " network "+p); err != nil {
			t.Fatal(err)
		}
	}
	for name, edit := range map[string]func(*Network){
		"SetConfig":   func(n *Network) { n.SetConfig(pe, config.Write(caller[pe])) },
		"ApplyUpdate": func(n *Network) { originate(n, "198.18.0.0/24") },
	} {
		n := NetworkFrom(w.Net, w.Snap)
		edit(n)
		if !maps.Equal(w.Snap, caller) || n.snap[pe] == caller[pe] {
			t.Fatalf("%s after NetworkFrom: the caller's %s replaced: %v, the network's: %v",
				name, pe, w.Snap[pe] != caller[pe], n.snap[pe] != caller[pe])
		}
	}

	a := NetworkFrom(w.Net, w.Snap)
	originate(a, "198.18.0.0/24") // a now holds its own map
	b := a.Clone()
	for _, edit := range []struct {
		name         string
		edited, kept *Network
	}{{"the clone", b, a}, {"the original", a, b}} {
		held := maps.Clone(edit.kept.snap)
		prev := edit.edited.snap[pe]
		originate(edit.edited, "198.19.0.0/24")
		if !maps.Equal(edit.kept.snap, held) || edit.edited.snap[pe] == prev {
			t.Fatalf("ApplyUpdate of %s after Clone: the other's %s replaced: %v, its own: %v",
				edit.name, pe, edit.kept.snap[pe] != held[pe], edit.edited.snap[pe] != prev)
		}
	}
	if !maps.Equal(w.Snap, caller) {
		t.Fatal("edits of a Network and its Clone replaced a device in NetworkFrom's caller's map")
	}
}
