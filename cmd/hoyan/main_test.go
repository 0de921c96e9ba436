package main

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hoyan"
	"hoyan/internal/config"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
)

// TestSweepFlagsReachThePlan pins that every sweep flag changes what is
// dispatched whichever executors run it: with two loopback workers on
// gen.Small after one config edit, -modular still means region passes
// when -baseline is given too, and -audit-sample still means audits when
// -workers is — the two flags the old per-mode helpers dropped without a
// word. A journal composes with both, and a sweep with no -workers is
// simply the in-process executors.
func TestSweepFlagsReachThePlan(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if _, err := sweep(w.Net, w.Snap, sweepFlags{k: 2, saveBaseline: baseline}); err != nil {
		t.Fatal(err)
	}
	step := gen.Perturb(w, 3, 1)[0]
	if step.Kind == "link" {
		t.Fatalf("want a config edit, got %s", step.Description)
	}
	snap, err := w.Snap.Apply([]config.Update{{Device: step.Device, Lines: step.Lines}})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		wk := dist.NewWorker(w.Net, snap)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- wk.Serve(ln) }()
		defer func() {
			wk.Close()
			<-done
		}()
		addrs = append(addrs, ln.Addr().String())
	}
	workers := strings.Join(addrs, ",")
	run := func(f sweepFlags) *hoyan.SweepReport {
		t.Helper()
		f.k = 2
		rep, err := sweep(w.Net, snap, f)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	local := run(sweepFlags{})
	if local.Run.Classes != local.Classes || local.Replayed != 0 {
		t.Fatalf("plain in-process sweep dispatched %d of %d classes", local.Run.Classes, local.Classes)
	}

	rep := run(sweepFlags{workers: workers, baseline: baseline, modular: true})
	if rep.Replayed == 0 || rep.Run.Classes == 0 {
		t.Fatalf("-baseline over workers: %d classes replayed, %d dispatched", rep.Replayed, rep.Run.Classes)
	}
	if rep.Modular == nil || rep.Modular.Passes == 0 {
		t.Fatalf("-modular was dropped next to -workers -baseline: %+v", rep.Modular)
	}

	if rep = run(sweepFlags{workers: workers, auditSample: 1}); rep.Audited == 0 {
		t.Fatal("-audit-sample was dropped next to -workers: no member audited")
	}
	if rep = run(sweepFlags{workers: workers, baseline: baseline, auditSample: 1}); rep.Invalidation.ReplaysAudited == 0 {
		t.Fatal("-audit-sample was dropped next to -workers -baseline: no replay audited")
	}

	// A journal next to -modular and next to -baseline: a completed
	// session removes its journal.
	for _, f := range []sweepFlags{
		{workers: workers, modular: true},
		{workers: workers, baseline: baseline},
		{modular: true, baseline: baseline},
	} {
		f.journal = filepath.Join(dir, "sweep.journal")
		rep := run(f)
		if len(rep.Prefixes) != len(local.Prefixes) {
			t.Fatalf("journaled sweep %+v covered %d of %d prefixes", f, len(rep.Prefixes), len(local.Prefixes))
		}
		if _, err := os.Stat(f.journal); !os.IsNotExist(err) {
			t.Fatalf("journal of a completed session still there: %v", err)
		}
	}

	// The one thing refused, and why.
	if _, err := sweep(w.Net, snap, sweepFlags{k: 2, workers: workers, saveBaseline: filepath.Join(dir, "b2.json")}); err == nil ||
		!strings.Contains(err.Error(), "in-process") {
		t.Fatalf("-save-baseline over workers: %v", err)
	}
}

// TestSweepBaselineWithoutVerdicts: a -baseline store written before
// records held verdicts (the key is absent there; a nil slice decodes
// the same) has every record quarantined at load; the sweep warns and
// runs cold instead of planning against an empty baseline.
func TestSweepBaselineWithoutVerdicts(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(t.TempDir(), "baseline.json")
	if _, err := sweep(w.Net, w.Snap, sweepFlags{k: 1, saveBaseline: baseline}); err != nil {
		t.Fatal(err)
	}
	store, err := hoyan.LoadResultStore(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for i := range store.Classes {
		store.Classes[i].Verdicts = nil
	}
	if err := store.Save(baseline); err != nil {
		t.Fatal(err)
	}
	rep, err := sweep(w.Net, w.Snap, sweepFlags{k: 1, baseline: baseline})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invalidation != nil || rep.Replayed != 0 || rep.Run.Classes != rep.Classes {
		t.Fatalf("want a cold sweep of all %d classes, got %d dispatched, %d replayed, invalidation %+v",
			rep.Classes, rep.Run.Classes, rep.Replayed, rep.Invalidation)
	}
}

// TestPacketCommandAnyGateway runs the built command on
// examples/networks/two-gateways: `hoyan packet` asks hoyan.Verifier, so
// it agrees with the library and /v1/packet that src reaches the prefix
// through its second announcer.
func TestPacketCommandAnyGateway(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hoyan")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "packet", "-dir", "../../examples/networks/two-gateways",
		"-prefix", "10.0.0.0/8", "-src", "src", "-k", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("hoyan packet: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "reachable=true min-failures=1") {
		t.Fatalf("src reaches gw-b over one link, the command says: %s", out)
	}
}
