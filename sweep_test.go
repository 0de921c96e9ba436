package hoyan

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
)

// wanNetwork converts a generated WAN into a public-API Network.
func wanNetwork(t testing.TB) (*Network, *gen.WAN) {
	t.Helper()
	return wanNetworkFrom(t, gen.Small())
}

func wanNetworkFrom(t testing.TB, params gen.Params) (*Network, *gen.WAN) {
	t.Helper()
	w, err := gen.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork()
	for _, node := range w.Net.Nodes() {
		n.AddRouter(Router{Name: node.Name, AS: node.AS, Vendor: node.Vendor,
			Region: node.Region, Group: node.Group})
	}
	for _, l := range w.Net.Links() {
		n.AddLink(w.Net.Node(l.A).Name, w.Net.Node(l.B).Name, l.Weight)
	}
	for name, cfg := range w.Snap {
		n.SetConfig(name, config.Write(cfg))
	}
	return n, w
}

// sweepUnclassed is the reference the class layer is pinned against: the
// same sweep over a plan of singleton classes — every announced prefix
// simulated on its own, nothing replicated.
func sweepUnclassed(t testing.TB, n *Network, opts Options, workers int) *SweepReport {
	t.Helper()
	model, err := core.Assemble(n.net, n.snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	var singles []core.PrefixClass
	for _, p := range model.AnnouncedPrefixes() {
		singles = append(singles, core.PrefixClass{Rep: p, Members: []netaddr.Prefix{p}})
	}
	rep, _, err := n.sweepClasses(opts, model, singles, dist.Local(workers), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	n, w := wanNetwork(t)
	serial, err := n.Sweep(Options{K: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := n.Sweep(Options{K: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Prefixes) != len(w.Prefixes()) {
		t.Fatalf("sweep covered %d prefixes, want %d", len(serial.Prefixes), len(w.Prefixes()))
	}
	if len(serial.Prefixes) != len(parallel.Prefixes) {
		t.Fatalf("serial %d vs parallel %d prefixes", len(serial.Prefixes), len(parallel.Prefixes))
	}
	for i := range serial.Prefixes {
		s, p := serial.Prefixes[i], parallel.Prefixes[i]
		if s.Prefix != p.Prefix || s.MinFailures != p.MinFailures || s.WeakestRouter != p.WeakestRouter {
			t.Fatalf("worker count changed results: %+v vs %+v", s, p)
		}
	}
	if len(serial.Violations) != len(parallel.Violations) {
		t.Fatalf("violations differ: %d vs %d", len(serial.Violations), len(parallel.Violations))
	}
	if !strings.Contains(parallel.String(), "sweep:") {
		t.Fatal("report rendering")
	}
}

// TestSweepDeterministicAcrossWorkers is the regression gate for the
// shared-model engine: results are BDD-based, so sharding the prefix
// space differently must not change a single verdict. Compares a
// 1-worker and an 8-worker sweep of the medium WAN field-by-field,
// ignoring only the timing fields (SimTime, Duration).
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-WAN sweep; skipped with -short")
	}
	n, w := wanNetworkFrom(t, gen.Medium())
	one, err := n.Sweep(Options{K: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := n.Sweep(Options{K: 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Prefixes) != len(w.Prefixes()) {
		t.Fatalf("sweep covered %d prefixes, want %d", len(one.Prefixes), len(w.Prefixes()))
	}
	if len(one.Prefixes) != len(eight.Prefixes) {
		t.Fatalf("1 worker saw %d prefixes, 8 workers saw %d", len(one.Prefixes), len(eight.Prefixes))
	}
	for i := range one.Prefixes {
		a, b := one.Prefixes[i], eight.Prefixes[i]
		a.SimTime, b.SimTime = 0, 0
		if a != b {
			t.Fatalf("prefix %d differs across worker counts:\n  1 worker:  %+v\n  8 workers: %+v", i, a, b)
		}
	}
	if len(one.Violations) != len(eight.Violations) {
		t.Fatalf("violations differ: %d vs %d", len(one.Violations), len(eight.Violations))
	}
	for i := range one.Violations {
		if one.Violations[i] != eight.Violations[i] {
			t.Fatalf("violation %d differs: %+v vs %+v", i, one.Violations[i], eight.Violations[i])
		}
	}
}

// TestSweepAssemblesModelOnce pins the assemble-once contract: a sweep
// builds exactly one core.Model no matter how many workers run. An
// incremental sweep of the unchanged network against a store this
// process captured assembles none: the store keeps the model it swept,
// which is this network's. Against a store loaded off disk it assembles
// its own model and the baseline once, on first use, and never again.
func TestSweepAssemblesModelOnce(t *testing.T) {
	n, _ := wanNetwork(t)
	assembles := func(desc string, want int64, f func() error) {
		t.Helper()
		before := core.AssembleCalls()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		if got := core.AssembleCalls() - before; got != want {
			t.Fatalf("%s assembled %d models, want exactly %d", desc, got, want)
		}
	}
	var store *ResultStore
	assembles("SweepBaseline", 1, func() (err error) {
		_, store, err = n.SweepBaseline(Options{K: 2}, 4)
		return err
	})
	assembles("an incremental Sweep of the unchanged network against the in-process store", 0, func() error {
		_, err := n.Sweep(Options{K: 2, Baseline: store}, 4)
		return err
	})
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := store.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResultStore(path)
	if err != nil {
		t.Fatal(err)
	}
	assembles("an incremental Sweep against the loaded store", 2, func() error {
		_, err := n.Sweep(Options{K: 2, Baseline: loaded}, 4)
		return err
	})
	assembles("a later PlanIncremental against the loaded store", 1, func() error {
		_, err := n.PlanIncremental(Options{K: 2}, loaded)
		return err
	})
}

func TestSweepCleanWANHasNoViolations(t *testing.T) {
	n, _ := wanNetwork(t)
	rep, err := n.Sweep(Options{K: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("clean WAN must sweep clean: %v", rep.Violations)
	}
	// Every prefix is dual-homed, so nothing breaks at k=1.
	for _, p := range rep.Prefixes {
		if p.MinFailures == 1 {
			t.Fatalf("dual-homed prefix breakable at 1 failure: %+v", p)
		}
		if p.SimTime <= 0 {
			t.Fatal("per-prefix sim time must be recorded")
		}
	}
}

// diffSweepReports compares two sweep reports field-by-field, ignoring
// timing (SimTime, Duration) and dispatch stats (Workers, Classes,
// Audited) — the fields that legitimately differ between a classed and an
// unclassed run.
func diffSweepReports(t *testing.T, label string, a, b *SweepReport) {
	t.Helper()
	if len(a.Prefixes) != len(b.Prefixes) {
		t.Fatalf("%s: %d vs %d prefixes", label, len(a.Prefixes), len(b.Prefixes))
	}
	for i := range a.Prefixes {
		x, y := a.Prefixes[i], b.Prefixes[i]
		x.SimTime, y.SimTime = 0, 0
		if x != y {
			t.Fatalf("%s: prefix %d differs:\n  a: %+v\n  b: %+v", label, i, x, y)
		}
	}
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("%s: %d vs %d violations", label, len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		if a.Violations[i] != b.Violations[i] {
			t.Fatalf("%s: violation %d differs: %+v vs %+v", label, i, a.Violations[i], b.Violations[i])
		}
	}
}

// TestSweepClassedMatchesUnclassed is the correctness gate of the
// equivalence-class layer: a classed sweep must produce the identical
// report (modulo timing) to a one-simulation-per-prefix sweep.
func TestSweepClassedMatchesUnclassed(t *testing.T) {
	params := gen.Small()
	if !testing.Short() {
		params = gen.Medium()
	}
	n, w := wanNetworkFrom(t, params)
	for _, k := range []int{1, 3} {
		classed, err := n.Sweep(Options{K: k}, 4)
		if err != nil {
			t.Fatal(err)
		}
		unclassed := sweepUnclassed(t, n, Options{K: k}, 4)
		if classed.Classes >= len(w.Prefixes()) {
			t.Fatalf("K=%d: batching never engaged: %d classes for %d prefixes",
				k, classed.Classes, len(w.Prefixes()))
		}
		if unclassed.Classes != len(w.Prefixes()) {
			t.Fatalf("K=%d: the unclassed reference must dispatch per prefix: %d jobs for %d prefixes",
				k, unclassed.Classes, len(w.Prefixes()))
		}
		diffSweepReports(t, "classed vs unclassed", classed, unclassed)
	}
}

// asymmetricNetwork builds the minimal case where two prefixes from the
// same gateway must NOT share a class: the PE's ingress policy permits
// only one of them through a prefix-list, with an explicit deny tail so
// the split does not depend on the vendor's default-policy VSB.
func asymmetricNetwork(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	n.AddRouter(Router{Name: "gw", AS: 65001, Vendor: "alpha"})
	n.AddRouter(Router{Name: "pe", AS: 64500, Vendor: "alpha"})
	n.AddLink("gw", "pe", 10)
	n.SetConfig("gw", `hostname gw
router bgp 65001
 network 10.0.1.0/24
 network 10.0.2.0/24
 neighbor pe remote-as 64500
`)
	n.SetConfig("pe", `hostname pe
router bgp 64500
 neighbor gw remote-as 65001
 neighbor gw route-policy IN in
ip prefix-list ONLY1 permit 10.0.1.0/24
route-policy IN permit 10
 match prefix-list ONLY1
route-policy IN deny 20
`)
	return n
}

// TestSweepAsymmetricPolicySplitsClasses: two near-identical prefixes with
// policy-asymmetric treatment land in different classes, and the classed
// sweep reports their genuinely different verdicts (one is filtered at the
// PE, one is not).
func TestSweepAsymmetricPolicySplitsClasses(t *testing.T) {
	n := asymmetricNetwork(t)
	rep, err := n.Sweep(Options{K: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Classes != 2 {
		t.Fatalf("policy-asymmetric prefixes must be 2 classes, got %d", rep.Classes)
	}
	filtered, passed := false, true
	for _, v := range rep.Violations {
		if v.Prefix == "10.0.2.0/24" && v.Router == "pe" {
			filtered = true
		}
		if v.Prefix == "10.0.1.0/24" {
			passed = false
		}
	}
	if !filtered || !passed {
		t.Fatalf("expected only 10.0.2.0/24 unreachable at pe, got %+v", rep.Violations)
	}
	diffSweepReports(t, "asymmetric classed vs unclassed", rep, sweepUnclassed(t, n, Options{K: 1}, 1))
}

// TestSweepAuditSample: auditing every non-representative member of a
// clean WAN reports the audit count and zero divergences.
func TestSweepAuditSample(t *testing.T) {
	n, w := wanNetwork(t)
	rep, err := n.Sweep(Options{K: 2, AuditSample: 1.0}, 2)
	if err != nil {
		t.Fatalf("full audit diverged: %v", err)
	}
	want := len(w.Prefixes()) - rep.Classes
	if rep.Audited != want {
		t.Fatalf("AuditSample=1 audited %d members, want %d (prefixes %d - classes %d)",
			rep.Audited, want, len(w.Prefixes()), rep.Classes)
	}
	if !strings.Contains(rep.String(), "audited") {
		t.Fatal("audit count missing from report rendering")
	}
}

// TestSweepWorkerClampToJobs: the worker count is clamped to dispatched
// jobs — classes when batching, prefixes when not.
func TestSweepWorkerClampToJobs(t *testing.T) {
	n, w := wanNetwork(t)
	classed, err := n.Sweep(Options{K: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if classed.Workers != classed.Classes {
		t.Fatalf("workers clamped to %d, want the class count %d", classed.Workers, classed.Classes)
	}
	unclassed := sweepUnclassed(t, n, Options{K: 1}, 64)
	if unclassed.Workers != len(w.Prefixes()) {
		t.Fatalf("unclassed workers clamped to %d, want the prefix count %d", unclassed.Workers, len(w.Prefixes()))
	}
}

// TestSweepFullWANClassedIdentity is the acceptance run of the PR: the
// full generated WAN, classed vs unclassed identity plus a 10% audit.
// ~10 CPU-minutes, so it only runs with HOYAN_SWEEP_FULL=1.
func TestSweepFullWANClassedIdentity(t *testing.T) {
	if os.Getenv("HOYAN_SWEEP_FULL") == "" {
		t.Skip("set HOYAN_SWEEP_FULL=1 to run the full-WAN acceptance sweep")
	}
	n, _ := wanNetworkFrom(t, gen.Full())
	classed, err := n.Sweep(Options{K: 3, AuditSample: 0.1}, 8)
	if err != nil {
		t.Fatalf("classed full sweep (10%% audit): %v", err)
	}
	t.Logf("classed:   %s", classed)
	unclassed := sweepUnclassed(t, n, Options{K: 3}, 8)
	t.Logf("unclassed: %s", unclassed)
	diffSweepReports(t, "full WAN classed vs unclassed", classed, unclassed)
	if classed.Audited == 0 {
		t.Fatal("10% audit on the full WAN audited nothing")
	}
}

func TestSweepEmptyNetwork(t *testing.T) {
	n := NewNetwork()
	n.AddRouter(Router{Name: "lonely", AS: 1, Vendor: "alpha"})
	n.SetConfig("lonely", "hostname lonely\n")
	rep, err := n.Sweep(Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Prefixes) != 0 {
		t.Fatal("no announcements, no summaries")
	}
}
