package dist

import (
	"net"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/gen"
)

// startWorkers spins up n in-process workers over loopback sharing one
// generated WAN, returning their addresses and a stop function.
func startWorkers(t *testing.T, w *gen.WAN, n int) ([]string, func()) {
	t.Helper()
	var addrs []string
	var stops []func()
	for i := 0; i < n; i++ {
		wk := NewWorker(w.Net, w.Snap)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- wk.Serve(ln) }()
		addrs = append(addrs, ln.Addr().String())
		stops = append(stops, func() {
			wk.Close()
			<-done
		})
	}
	return addrs, func() {
		for _, s := range stops {
			s()
		}
	}
}

func TestDistributedSweepMatchesLocal(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop := startWorkers(t, w, 3)
	defer stop()

	var prefixes []string
	for _, p := range w.Prefixes() {
		prefixes = append(prefixes, p.String())
	}
	coord := &Coordinator{Addrs: addrs}
	res, err := runPrefixes(coord, prefixes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ByPrefix) != len(prefixes) {
		t.Fatalf("completed %d/%d", len(res.ByPrefix), len(prefixes))
	}
	// Every BGP router reports reachable on the clean WAN, and dual-homed
	// prefixes never break at a single failure.
	for p, sums := range res.ByPrefix {
		if len(sums) == 0 {
			t.Fatalf("%s: empty summaries", p)
		}
		for _, s := range sums {
			if !s.Reachable {
				t.Fatalf("%s unreachable at %s", p, s.Router)
			}
			if s.MinFailures == 1 {
				t.Fatalf("%s breakable at 1 failure at %s", p, s.Router)
			}
		}
	}
	// Work stealing used more than one worker.
	used := 0
	for _, n := range res.Assigned {
		if n > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("work distribution %v", res.Assigned)
	}
}

func TestCoordinatorErrors(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	// No workers.
	if _, err := runPrefixes(&Coordinator{}, []string{"10.0.0.0/24"}, 1); err == nil {
		t.Fatal("no workers must fail")
	}
	// Unreachable worker address.
	bad := &Coordinator{Addrs: []string{"127.0.0.1:1"}}
	if _, err := runPrefixes(bad, []string{"10.0.0.0/24"}, 1); err == nil {
		t.Fatal("dead worker must surface")
	}
	// Bad prefix reaches the worker and comes back as an error.
	addrs, stop := startWorkers(t, w, 1)
	defer stop()
	coord := &Coordinator{Addrs: addrs}
	if _, err := runPrefixes(coord, []string{"not-a-prefix"}, 1); err == nil {
		t.Fatal("bad prefix must surface")
	}
}

// TestRunClassesReplicates: a classed distributed run dispatches only
// representatives and replicates their summaries to members, matching a
// plain per-prefix run verdict-for-verdict.
func TestRunClassesReplicates(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	var classes [][]string
	var all []string
	for _, c := range model.Classes() {
		var cl []string
		for _, p := range c.Members {
			cl = append(cl, p.String())
			all = append(all, p.String())
		}
		classes = append(classes, cl)
	}
	if len(classes) >= len(all) {
		t.Fatalf("no batching on gen.Small: %d classes for %d prefixes", len(classes), len(all))
	}

	addrs, stop := startWorkers(t, w, 2)
	defer stop()
	coord := &Coordinator{Addrs: addrs}
	classed, err := coord.RunClasses(classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if classed.Classes != len(classes) {
		t.Fatalf("dispatched %d classes, want %d", classed.Classes, len(classes))
	}
	if classed.Replicated != len(all)-len(classes) {
		t.Fatalf("replicated %d members, want %d", classed.Replicated, len(all)-len(classes))
	}
	plain, err := runPrefixes(coord, all, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(classed.ByPrefix) != len(plain.ByPrefix) {
		t.Fatalf("classed covers %d prefixes, plain %d", len(classed.ByPrefix), len(plain.ByPrefix))
	}
	for p, want := range plain.ByPrefix {
		got := classed.ByPrefix[p]
		if len(got) != len(want) {
			t.Fatalf("%s: %d summaries, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: summary %d differs: %+v vs %+v", p, i, got[i], want[i])
			}
		}
	}

	// A permanently failing representative fails every member of its class.
	bad, err := coord.RunClasses([][]string{{"not-a-prefix", "10.0.0.0/24"}}, 1)
	if err == nil {
		t.Fatal("failing representative must surface")
	}
	if len(bad.Failed) != 2 {
		t.Fatalf("failed %d prefixes, want the whole class (2): %+v", len(bad.Failed), bad.Failed)
	}
}

func TestWorkerReusesSimulatorAcrossPrefixes(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop := startWorkers(t, w, 1)
	defer stop()
	coord := &Coordinator{Addrs: addrs}
	var prefixes []string
	for _, p := range w.Prefixes()[:3] {
		prefixes = append(prefixes, p.String())
	}
	// Two runs over the same connection-per-run model must both succeed
	// (the worker keeps per-connection simulators; closing and reopening
	// is also fine).
	for i := 0; i < 2; i++ {
		res, err := runPrefixes(coord, prefixes, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ByPrefix) != 3 {
			t.Fatalf("run %d: %d prefixes", i, len(res.ByPrefix))
		}
	}
}
