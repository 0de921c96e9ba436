package core

import (
	"fmt"
	"strings"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/igp"
)

// verdictsOn runs every class representative on a simulator of sh and
// renders what a sweep reports of each: reachability and the minimal
// failure count at every BGP speaker.
func verdictsOn(t *testing.T, sh *Shared) string {
	t.Helper()
	var b strings.Builder
	sim := sh.NewSimulator()
	for ci, cls := range sh.Classes() {
		if ci > 0 {
			sim.Reset()
		}
		res, err := sim.Run(cls.Rep)
		if err != nil {
			t.Fatal(err)
		}
		pat := AnyRouteTo(cls.Rep)
		for _, node := range sh.M.Net.Nodes() {
			if sh.M.Configs[node.ID].BGP == nil {
				continue
			}
			min := -1
			reach := res.Reachable(node.ID, pat)
			if reach {
				min, _ = res.MinFailuresToLose(node.ID, pat)
			}
			fmt.Fprintf(&b, "%s %s %v %d\n", cls.Rep, node.Name, reach, min)
		}
	}
	return b.String()
}

// TestMemoBuildDeterministic pins the verdict half of the memo build's
// determinism (igp's test of the same name pins the bytes): whatever the
// parallelism of the build, every class simulates to the same verdicts.
// Run under -race -count=10 by `make chaos`, on gen.Small there.
func TestMemoBuildDeterministic(t *testing.T) {
	presets := []gen.Params{gen.Small()}
	if !testing.Short() && !raceEnabled {
		presets = append(presets, gen.Medium())
	}
	for _, p := range presets {
		m := modelFrom(t, p)
		opts := DefaultOptions()
		opts.K = 2
		want := verdictsOn(t, SharedFrom(m, opts, nil, 1))
		for _, workers := range []int{2, 4} {
			if got := verdictsOn(t, SharedFrom(m, opts, nil, workers)); got != want {
				t.Fatalf("%d routers: a memo built on %d goroutines changes verdicts", m.Net.NumNodes(), workers)
			}
		}
	}
}

// TestSharedFromReuse pins what SharedFrom propagates: everything when
// cold, nothing when handed the memo of a model that differs in nothing
// the IGP reads, and the whole-WAN memo already holds whatever the cut and
// region memos of the same model ask for.
func TestSharedFromReuse(t *testing.T) {
	m := modelFrom(t, gen.Small())
	opts := DefaultOptions()
	opts.K = 1
	count := func(f func()) int64 {
		before := igp.Propagations()
		f()
		return igp.Propagations() - before
	}
	var cold *Shared
	if n := count(func() { cold = NewShared(m, opts) }); n == 0 || int(n) != cold.IGPMemo().NumDestinations() || cold.Err() != nil {
		t.Fatalf("cold Shared: %d propagations for %d destinations (%v)", n, cold.IGPMemo().NumDestinations(), cold.Err())
	}
	if cold.IGPMemo().Key() != IGPKey(m, opts) {
		t.Fatal("IGPKey disagrees with the key of the memo SharedFrom builds")
	}
	if n := count(func() { SharedFrom(m, opts, cold.IGPMemo(), 2) }); n != 0 {
		t.Fatalf("a Shared handed its own memo ran %d propagations", n)
	}
	pt, err := NewPartition(m)
	if err != nil {
		t.Fatal(err)
	}
	n := count(func() {
		cut, err := CutMemo(m, opts, pt, cold.IGPMemo(), 2)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < pt.NumRegions(); r++ {
			NewRegionShared(m, opts, pt, r, cut, 2)
		}
	})
	if n != 0 {
		t.Fatalf("cut and region memos ran %d propagations the whole-WAN memo already held", n)
	}
	// Cold, the cut and the regions together propagate each destination
	// once: a region starts from the cut and adds only its own.
	var union *igp.Memo
	n = count(func() {
		cut, err := CutMemo(m, opts, pt, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		union = cut
		for r := 0; r < pt.NumRegions(); r++ {
			union = NewRegionShared(m, opts, pt, r, union, 2).IGPMemo()
		}
	})
	if int(n) != cold.IGPMemo().NumDestinations() || union.NumDestinations() != int(n) {
		t.Fatalf("cut + regions: %d propagations, %d destinations; the whole-WAN memo has %d",
			n, union.NumDestinations(), cold.IGPMemo().NumDestinations())
	}
	opts.K = 2
	if n := count(func() { SharedFrom(m, opts, cold.IGPMemo(), 2) }); int(n) != cold.IGPMemo().NumDestinations() {
		t.Fatalf("another failure budget reused %d RIBs built for K=1", cold.IGPMemo().NumDestinations()-int(n))
	}
}
