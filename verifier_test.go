package hoyan

import (
	"testing"

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
