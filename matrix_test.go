package hoyan

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
)

// reportDigest is the verdict digest of a sweep: every prefix's minimal
// failure count and weakest router, then every violation, in report
// order (both are sorted).
func reportDigest(rep *SweepReport) string {
	h := sha256.New()
	for _, p := range rep.Prefixes {
		fmt.Fprintf(h, "P %s %d %s\n", p.Prefix, p.MinFailures, p.WeakestRouter)
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(h, "V %s %s %s %s\n", v.Prefix, v.Router, v.Kind, v.Details)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// loopbackPool serves n on count loopback TCP workers for the rest of
// the test and returns the pool of them.
func loopbackPool(t *testing.T, n *Network, count int) *dist.Coordinator {
	t.Helper()
	pool := &dist.Coordinator{}
	for i := 0; i < count; i++ {
		wk := dist.NewWorker(n.net, n.snap)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- wk.Serve(ln) }()
		t.Cleanup(func() {
			wk.Close()
			<-done
		})
		pool.Addrs = append(pool.Addrs, ln.Addr().String())
	}
	return pool
}

// storeBytes is the JSON of a store: the bytes two captures of one
// network agree on.
func storeBytes(t *testing.T, st *ResultStore) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepModeMatrix is the orthogonality pin of the sweep plan: every
// combination of executors {2 in-process, 2 loopback TCP workers} ×
// {monolithic, modular} × {cold, against a baseline captured before one
// gen.Perturb edit} × {journal off, on} × {capture off, on} is the same
// plan run by the same scheduler, so every cell yields the verdict
// digest of the cold monolithic in-process cell — and a journaled cell
// resumes to it too, every dispatched class settled from the journal.
// Every capturing cell, fresh or resumed, captures the store of the cold
// monolithic in-process cell byte for byte (pass timings aside): a class
// record is built from what the passes answer, whichever executors ran
// them. The only refused cells are capture with region passes: a region
// pass does not see the whole-WAN taints and conditions a class record
// holds, and the error says so.
func TestSweepModeMatrix(t *testing.T) {
	cases := []struct {
		name   string
		params gen.Params
		k      int
	}{
		{"small", gen.Small(), 2},
		{"medium", gen.Medium(), 1},
	}
	for _, tc := range cases {
		// The medium half runs the same scheduler over more classes and
		// regions; under the race detector it costs minutes and shows the
		// detector no interleaving the small half does not.
		if tc.name != "small" && (testing.Short() || raceEnabled) {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			n, w := wanNetworkFrom(t, tc.params)
			_, baseline, err := n.SweepBaseline(Options{K: tc.k}, 2)
			if err != nil {
				t.Fatal(err)
			}
			// The edit: the first config perturbation of the series that
			// leaves some classes to replay and dirties one the cut can
			// run as region passes (one with a home region), so the
			// modular incremental cells run a pass.
			edited := false
			for _, step := range gen.Perturb(w, 3, 6) {
				if step.Kind == "link" {
					continue
				}
				trial := n.Clone()
				applyPerturbation(t, trial, step)
				plan, err := trial.PlanIncremental(Options{K: tc.k}, baseline)
				if err != nil {
					t.Fatal(err)
				}
				if plan.ReplayedClasses > 0 && dirtiesHomedClass(t, trial, plan) {
					n, edited = trial, true
					break
				}
			}
			if !edited {
				t.Fatal("no perturbation both dirties and replays a class")
			}

			// What the cells share: two loopback workers. A journal is a
			// path; the sweep writes its header from the plan.
			pools := []struct {
				name string
				pool dist.Pool
			}{
				{"in-process", dist.Local(2)},
				{"tcp", loopbackPool(t, n, 2)},
			}

			ref, refStore, err := n.SweepBaseline(Options{K: tc.k}, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStore := reportDigest(ref), storeBytes(t, refStore)

			for _, pl := range pools {
				for bits := 0; bits < 16; bits++ {
					modular, incremental, journaled, capture := bits&1 != 0, bits&2 != 0, bits&4 != 0, bits&8 != 0
					cell := fmt.Sprintf("%s/modular=%v/baseline=%v/journal=%v/capture=%v",
						pl.name, modular, incremental, journaled, capture)
					opts := Options{K: tc.k, Modular: modular}
					if incremental {
						opts.Baseline = baseline
					}
					path := filepath.Join(t.TempDir(), "sweep.journal")
					var journal *dist.Session
					if journaled {
						if journal, err = dist.OpenSession(path); err != nil {
							t.Fatal(err)
						}
					}
					rep, store, err := n.SweepOver(opts, pl.pool, journal, capture)
					if journal != nil {
						journal.Close()
					}
					if capture && modular {
						if err == nil || !strings.Contains(err.Error(), "baseline capture requires") {
							t.Fatalf("%s: want the capture refusal, got %v", cell, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: refused or failed: %v", cell, err)
					}
					if got := reportDigest(rep); got != want {
						t.Fatalf("%s: verdict digest %s, want %s", cell, got, want)
					}
					if capture && storeBytes(t, store) != wantStore {
						t.Fatalf("%s: captured store differs from the cold in-process capture", cell)
					}
					if modular && rep.Modular.Passes == 0 {
						t.Fatalf("%s: no region pass ran", cell)
					}
					if incremental && rep.Replayed == 0 {
						t.Fatalf("%s: nothing replayed from the baseline", cell)
					}
					if !journaled {
						continue
					}
					resumed, err := dist.OpenSession(path)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					again, againStore, err := n.SweepOver(opts, pl.pool, resumed, capture)
					resumed.Close()
					if err != nil {
						t.Fatalf("%s: resume: %v", cell, err)
					}
					if got := reportDigest(again); got != want {
						t.Fatalf("%s: resumed verdict digest %s, want %s", cell, got, want)
					}
					if again.Run.Resumed != rep.Run.Classes || again.Run.Classes != 0 {
						t.Fatalf("%s: resume settled %d classes from the journal and dispatched %d, want %d and 0",
							cell, again.Run.Resumed, again.Run.Classes, rep.Run.Classes)
					}
					if capture && storeBytes(t, againStore) != wantStore {
						t.Fatalf("%s: store captured from the journal differs from the cold in-process capture", cell)
					}
				}

				// A journal binds to its model, whichever executors run it: a
				// sweep killed after one class must not resume once the
				// network has been edited again, even by an edit (a new link)
				// that leaves the class partition as it was.
				later := n.Clone()
				for _, step := range gen.Perturb(w, 3, 6) {
					if step.Kind == "link" {
						applyPerturbation(t, later, step)
						break
					}
				}
				path := filepath.Join(t.TempDir(), "stale.journal")
				journal, err := dist.OpenSession(path)
				if err != nil {
					t.Fatal(err)
				}
				journal.KillAfter = 1
				_, _, err = n.SweepOver(Options{K: tc.k}, pl.pool, journal, false)
				journal.Close()
				if !errors.Is(err, dist.ErrSessionKilled) {
					t.Fatalf("%s: want the injected crash, got %v", pl.name, err)
				}
				resumed, err := dist.OpenSession(path)
				if err != nil {
					t.Fatal(err)
				}
				_, _, err = later.SweepOver(Options{K: tc.k}, pl.pool, resumed, false)
				resumed.Close()
				if err == nil || !strings.Contains(err.Error(), "journaled model") {
					t.Fatalf("%s: resuming a journal against an edited network: want the model refusal, got %v", pl.name, err)
				}
			}
		})
	}
}

// dirtiesHomedClass reports whether the plan re-simulates a class of
// n's model that the modular cut gives a home region.
func dirtiesHomedClass(t *testing.T, n *Network, plan *IncrementalPlan) bool {
	t.Helper()
	model, err := core.Assemble(n.net, n.snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	classes := model.Classes()
	_, _, homes := planModular(model, classes)
	for _, job := range plan.DirtyJobs {
		i := slices.IndexFunc(classes, func(c core.PrefixClass) bool { return c.Rep.String() == job[0] })
		if i >= 0 && homes != nil && homes[i] != "" {
			return true
		}
	}
	return false
}

// TestSweepJournalBindsProfiles: a custom behavior registry is part of
// the model a plan names. Remote workers assemble with the true
// profiles, so a NaiveProfiles sweep over them must fail rather than
// answer with true-profile verdicts; and a journal written under
// NaiveProfiles must refuse a sweep under the default registry rather
// than settle its classes with naive verdicts.
func TestSweepJournalBindsProfiles(t *testing.T) {
	n := betaPermitNet()
	naive := Options{K: 1, Profiles: NaiveProfiles()}
	truth, err := n.Sweep(Options{K: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	local, err := n.Sweep(naive, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reportDigest(local) == reportDigest(truth) {
		t.Fatal("the network gives the same verdicts under NaiveProfiles and TrueProfiles: the test shows nothing")
	}
	if rep, _, err := n.SweepOver(naive, loopbackPool(t, n, 2), nil, false); err == nil {
		t.Fatalf("a NaiveProfiles sweep over true-profile workers answered (with the true-profile digest: %v)",
			reportDigest(rep) == reportDigest(truth))
	}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	journal, err := dist.OpenSession(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := n.SweepOver(naive, dist.Local(2), journal, false)
	journal.Close()
	if err != nil || reportDigest(rep) != reportDigest(local) {
		t.Fatalf("journaled NaiveProfiles sweep: %v", err)
	}
	again, err := dist.OpenSession(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if _, _, err := n.SweepOver(Options{K: 1}, dist.Local(2), again, false); err == nil || !strings.Contains(err.Error(), "journaled model") {
		t.Fatalf("a NaiveProfiles journal settled a sweep under the true profiles: %v", err)
	}
}

// TestBaselineBindsProfiles: a result store is keyed by the profiles its
// registry gives the network's vendors. A store captured under
// NaiveProfiles must not replay under TunedProfiles, a registry that is
// just as custom (not nil) but gives beta its true profile, and a store
// captured under TunedProfiles replays under the default registry, which
// gives every vendor the same profile.
func TestBaselineBindsProfiles(t *testing.T) {
	n := betaPermitNet()
	tuned := Options{K: 1, Profiles: TunedProfiles()}
	cold, err := n.Sweep(tuned, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, naive, err := n.SweepBaseline(Options{K: 1, Profiles: NaiveProfiles()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	warm := tuned
	warm.Baseline = naive
	rep, err := n.Sweep(warm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 0 || reportDigest(rep) != reportDigest(cold) {
		t.Fatalf("a NaiveProfiles store replayed %d classes under TunedProfiles: %d violations, a cold tuned sweep %d",
			rep.Replayed, len(rep.Violations), len(cold.Violations))
	}

	_, st, err := n.SweepBaseline(tuned, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = n.Sweep(Options{K: 1, Baseline: st}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != rep.Classes || reportDigest(rep) != reportDigest(cold) {
		t.Fatalf("a TunedProfiles store replayed %d of %d classes under the default registry", rep.Replayed, rep.Classes)
	}
}
