package vet

import (
	"errors"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/netaddr"
)

// actualRefusals runs every class through the real modular engine —
// one home pass plus an independent import pass per other region — and
// returns the set of (class rep, region) pairs RunRegion refuses. Every
// pass runs on one simulator of one Shared, as on a worker. The
// production sweep stops a unit at its first refusal; set equality
// against the prediction needs every region's verdict, so each import
// pass runs regardless of the others.
func actualRefusals(t *testing.T, m *core.Model, k int) map[netaddr.Prefix]map[string]bool {
	t.Helper()
	copts := core.DefaultOptions()
	copts.K = k
	pt, err := core.NewPartition(m)
	if err != nil {
		t.Fatal(err)
	}
	classes := m.Classes()
	homes := make([]int, len(classes))
	for ci, cl := range classes {
		h, err := pt.FamilyHome(m, cl.Rep)
		if err != nil {
			t.Fatalf("class %d (%s): FamilyHome: %v", ci, cl.Rep, err)
		}
		homes[ci] = h
	}
	out := map[netaddr.Prefix]map[string]bool{}
	refuse := func(rep netaddr.Prefix, region int) {
		if out[rep] == nil {
			out[rep] = map[string]bool{}
		}
		out[rep][pt.RegionName(region)] = true
	}
	sim := core.NewShared(m, copts).NewSimulator()
	sums := make([]*core.CutSummary, len(classes))
	for r := 0; r < pt.NumRegions(); r++ {
		for ci, cl := range classes {
			if homes[ci] != r {
				continue
			}
			_, sum, err := sim.RunRegion(cl.Rep, pt, r, nil)
			var uc *core.UnsoundCut
			if errors.As(err, &uc) {
				refuse(cl.Rep, r)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			sums[ci] = sum
		}
	}
	for r := 0; r < pt.NumRegions(); r++ {
		for ci, cl := range classes {
			if homes[ci] == r || sums[ci] == nil {
				continue
			}
			_, _, err := sim.RunRegion(cl.Rep, pt, r, sums[ci])
			var uc *core.UnsoundCut
			if errors.As(err, &uc) {
				refuse(cl.Rep, r)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

func predictedSet(pred *Prediction) map[netaddr.Prefix]map[string]bool {
	out := map[netaddr.Prefix]map[string]bool{}
	for ci, refs := range pred.ByClass {
		for _, r := range refs {
			if r.Region == "" {
				continue // family-level: refuses before any region pass
			}
			rep := pred.Classes[ci].Rep
			if out[rep] == nil {
				out[rep] = map[string]bool{}
			}
			out[rep][r.Region] = true
		}
	}
	return out
}

func diffSets(t *testing.T, label string, predicted, actual map[netaddr.Prefix]map[string]bool) {
	t.Helper()
	for rep, regions := range predicted {
		for region := range regions {
			if !actual[rep][region] {
				t.Errorf("%s: predicted refusal of %s in %s; engine verified it", label, rep, region)
			}
		}
	}
	for rep, regions := range actual {
		for region := range regions {
			if !predicted[rep][region] {
				t.Errorf("%s: engine refused %s in %s; prediction missed it", label, rep, region)
			}
		}
	}
}

// TestCutSoundMatchesEngineMedium is the accuracy contract of the
// refusal predictor: on gen.Medium the static forecast equals, region
// for region and class for class, the UnsoundCut refusals RunRegion
// actually reports — at K=1 (both empty: the echo needs failures to
// activate) and at the default K=3, where the AllowASLoop echo route
// makes every class homed in the chord-bottlenecked region refuse
// exactly the one import region whose gateway primary is loop-tolerant
// with surviving chord transport (the case the PR 8 sweep documents).
// Flipping the loop-tolerant vendor profile strict removes both the
// prediction and the engine refusal — pinning the echo as the
// mechanism rather than a coincidence of counts.
func TestCutSoundMatchesEngineMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("full modular engine comparison under -short")
	}
	w, err := gen.Generate(gen.Medium())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, core.DefaultOptions().K} {
		pred := PredictRefusals(m, k)
		if len(pred.Global) != 0 {
			t.Fatalf("K=%d: unexpected global refusals: %+v", k, pred.Global)
		}
		diffSets(t, "K="+string(rune('0'+k)), predictedSet(pred), actualRefusals(t, m, k))
	}

	// Pin the K=3 channel itself, not just the counts: the four classes
	// homed in reg3 refuse reg1 through the pe-r1-0 / gw-r1-0 echo.
	pred := PredictRefusals(m, core.DefaultOptions().K)
	if got := pred.RefusedClasses(); got != 4 {
		t.Fatalf("K=3 predicts %d refused classes, want 4", got)
	}
	for ci, refs := range pred.ByClass {
		for _, r := range refs {
			if !r.Echo || r.Region != "reg1" || r.Device != "pe-r1-0" || r.Object != "neighbor/gw-r1-0" {
				t.Errorf("class %d (%s): unexpected channel %+v", ci, pred.Classes[ci].Rep, r)
			}
		}
	}

	// Control: a strict beta profile (no AS-loop tolerance) removes the
	// echo. The prediction drops to zero and the engine agrees on the
	// formerly-refusing cell.
	var probe netaddr.Prefix
	for ci, refs := range pred.ByClass {
		if len(refs) > 0 {
			probe = pred.Classes[ci].Rep
			break
		}
	}
	strict := behavior.TrueProfiles()
	p := strict.Get(behavior.VendorBeta)
	p.AllowASLoop = false
	strict.Set(p)
	m2, err := core.Assemble(w.Net, w.Snap, strict)
	if err != nil {
		t.Fatal(err)
	}
	if got := PredictRefusals(m2, core.DefaultOptions().K).RefusedClasses(); got != 0 {
		t.Fatalf("strict-profile prediction still refuses %d classes, want 0", got)
	}
	copts := core.DefaultOptions()
	pt, err := core.NewPartition(m2)
	if err != nil {
		t.Fatal(err)
	}
	home, err := pt.FamilyHome(m2, probe)
	if err != nil {
		t.Fatal(err)
	}
	sim := core.NewSimulator(m2, copts)
	_, sum, err := sim.RunRegion(probe, pt, home, nil)
	if err != nil {
		t.Fatal(err)
	}
	imp := -1
	for r := 0; r < pt.NumRegions(); r++ {
		if pt.RegionName(r) == "reg1" {
			imp = r
		}
	}
	if imp < 0 {
		t.Fatal("no region named reg1")
	}
	sim2 := core.NewSimulator(m2, copts)
	if _, _, err := sim2.RunRegion(probe, pt, imp, sum); err != nil {
		t.Fatalf("strict-profile engine still refuses %s in reg1: %v", probe, err)
	}
}
