package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hoyan"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
	"hoyan/internal/httpapi"
	"hoyan/internal/vet"
)

// TestSweepFlagsReachThePlan pins that every sweep flag changes what is
// dispatched whichever executors run it: with two loopback workers on
// gen.Small after one config edit, -modular still means region passes
// when -baseline is given too, and -audit-sample still means audits when
// -workers is — the two flags the old per-mode helpers dropped without a
// word. A journal composes with both, a sweep with no -workers is simply
// the in-process executors, and -save-baseline works over -workers too:
// only -modular refuses it.
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

	// A baseline saved over the workers is a baseline like any other: a
	// sweep of the same network replays every class from it.
	remote := filepath.Join(dir, "remote.json")
	run(sweepFlags{workers: workers, saveBaseline: remote})
	if rep = run(sweepFlags{baseline: remote}); rep.Invalidation == nil || rep.Invalidation.ClassesDirty != 0 || rep.Replayed != rep.Classes {
		t.Fatalf("-baseline of a store saved with -workers: %d of %d classes replayed, invalidation %+v", rep.Replayed, rep.Classes, rep.Invalidation)
	}

	// The one thing refused, and why.
	if _, err := sweep(w.Net, snap, sweepFlags{k: 2, modular: true, saveBaseline: filepath.Join(dir, "b2.json")}); err == nil ||
		!strings.Contains(err.Error(), "monolithic") {
		t.Fatalf("-save-baseline with -modular: %v", err)
	}
}

// TestSweepJournalAssemblesOnce: a journaled sweep assembles the model
// once, for the plan, which then writes the journal's header; nothing
// assembles it a second time to list the classes.
func TestSweepJournalAssemblesOnce(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	before := core.AssembleCalls()
	if _, err := sweep(w.Net, w.Snap, sweepFlags{k: 1, threads: 2, journal: filepath.Join(t.TempDir(), "sweep.journal")}); err != nil {
		t.Fatal(err)
	}
	if got := core.AssembleCalls() - before; got != 1 {
		t.Fatalf("a journaled sweep assembled the model %d times, want 1", got)
	}
}

// TestSweepJournalResumesOnRerun: re-running a killed sweep with the
// same -journal and no other flag resumes it — classes journaled before
// the kill settle from the journal — and reports what an uninterrupted
// sweep does.
func TestSweepJournalResumesOnRerun(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep(w.Net, w.Snap, sweepFlags{k: 1, threads: 2})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	killed, err := dist.OpenSession(path)
	if err != nil {
		t.Fatal(err)
	}
	killed.KillAfter = 2
	_, _, err = hoyan.NetworkFrom(w.Net, w.Snap).SweepOver(hoyan.Options{K: 1}, dist.Local(2), killed, false)
	killed.Close()
	if !errors.Is(err, dist.ErrSessionKilled) {
		t.Fatalf("want the injected crash, got %v", err)
	}

	got, err := sweep(w.Net, w.Snap, sweepFlags{k: 1, threads: 2, journal: path})
	if err != nil {
		t.Fatal(err)
	}
	if got.Run.Resumed != 2 || got.Run.Classes != got.Classes-2 {
		t.Fatalf("the re-run settled %d classes from the journal and dispatched %d of %d: want 2 and the rest",
			got.Run.Resumed, got.Run.Classes, got.Classes)
	}
	for _, r := range []*hoyan.SweepReport{want, got} {
		for i := range r.Prefixes {
			r.Prefixes[i].SimTime = 0
		}
	}
	if a, b := fmt.Sprint(got.Prefixes, got.Violations), fmt.Sprint(want.Prefixes, want.Violations); a != b {
		t.Fatalf("the resumed report differs from the uninterrupted one:\n%s\n%s", a, b)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the journal of the completed session is still there: %v", err)
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

// buildCmd builds the command in pkg (a directory relative to this one)
// and returns the binary's path.
func buildCmd(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cmd")
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// exitCode is the exit status behind a finished command's error.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return ee.ExitCode()
}

// refusal reads an HTTP error reply: the status and the message of its
// {"error": ...} body.
func refusal(t *testing.T, resp *http.Response, err error) (int, string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body.Error
}

// TestPacketCommandAnyGateway runs the built command on
// examples/networks/two-gateways: `hoyan packet` asks hoyan.Verifier, so
// it agrees with the library and /v1/packet that src reaches the prefix
// through its second announcer.
func TestPacketCommandAnyGateway(t *testing.T) {
	out, err := exec.Command(buildCmd(t, "."), "packet", "-dir", "../../examples/networks/two-gateways",
		"-prefix", "10.0.0.0/8", "-src", "src", "-k", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("hoyan packet: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "reachable=true min-failures=1") {
		t.Fatalf("src reaches gw-b over one link, the command says: %s", out)
	}
}

// TestAuditCommandReportsRacing: `hoyan audit` is hoyan.Verifier.AuditAll,
// so it does what its help says — conflicts, groups and racing. The
// network is examples/update_racing's (Figure 1: two origins, a
// local-preference design and a weight rule that contradicts it) written
// as a directory; the converged state depends on update order, which a
// conflict check alone does not say.
func TestAuditCommandReportsRacing(t *testing.T) {
	dir := t.TempDir()
	for name, text := range map[string]string{
		"topology.txt": `node A as=100 vendor=alpha
node B as=100 vendor=alpha
node C as=200 vendor=alpha
node D as=200 vendor=alpha
link A B 10
link C A 10
link D B 10
`,
		"A.cfg": `hostname A
router bgp 100
 neighbor B remote-as 100
 neighbor C remote-as 200
 neighbor C route-policy LP300 in
route-policy LP300 permit 10
 set local-preference 300
`,
		"B.cfg": `hostname B
router bgp 100
 neighbor A remote-as 100
 neighbor D remote-as 200
 neighbor D route-policy LP500 in
route-policy LP500 permit 10
 set local-preference 500
route-policy W100 permit 10
 set weight 100
router bgp 100
 neighbor A route-policy W100 in
`,
		"C.cfg": `hostname C
router bgp 200
 network 10.0.1.0/24
 neighbor A remote-as 100
`,
		"D.cfg": `hostname D
router bgp 200
 network 10.0.1.0/24
 neighbor B remote-as 100
`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := exec.Command(buildCmd(t, "."), "audit", "-dir", dir, "-k", "1").CombinedOutput()
	if code := exitCode(t, err); code != 1 {
		t.Fatalf("audit of an order-dependent network exited %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"[conflict] prefix=10.0.1.0/24", "[racing] prefix=10.0.1.0/24", "audit complete: 2 violations"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("audit output lacks %q:\n%s", want, out)
		}
	}
}

// TestUnusableStoreThroughEveryDoor drives a store none of whose records
// survives validation (written before records held verdicts) through the
// three places a store enters the system. hoyan.LoadResultStore holds the
// one rule — nothing to replay, nothing to serve — and every door gives
// its answer: the same error, and the store is not used. Each door keeps
// only what is its own: `hoyan sweep -baseline` moves the file aside and
// sweeps cold, `hoyand -store` refuses to boot, POST /v1/snapshots is a
// 400.
func TestUnusableStoreThroughEveryDoor(t *testing.T) {
	const network = "../../examples/networks/small"
	net, snap, err := gen.LoadDir(network)
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(t.TempDir(), "good.json")
	if _, err := sweep(net, snap, sweepFlags{k: 1, saveBaseline: good}); err != nil {
		t.Fatal(err)
	}
	store, err := hoyan.LoadResultStore(good)
	if err != nil {
		t.Fatal(err)
	}
	for i := range store.Classes {
		store.Classes[i].Verdicts = nil
	}

	doors := []struct {
		name string
		// open sends the store at path through the door and returns what
		// the door said.
		open func(t *testing.T, path string) string
	}{
		{"hoyan sweep -baseline", func(t *testing.T, path string) string {
			out, err := exec.Command(buildCmd(t, "."), "sweep", "-dir", network, "-k", "1", "-baseline", path).CombinedOutput()
			if code := exitCode(t, err); code != 0 {
				t.Fatalf("exit %d\n%s", code, out)
			}
			if !strings.Contains(string(out), "no usable baseline; sweeping cold") || strings.Contains(string(out), "replayed") {
				t.Fatalf("want a cold sweep:\n%s", out)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("the store was not moved aside: %v", err)
			}
			return string(out)
		}},
		{"hoyand -store", func(t *testing.T, path string) string {
			// A hoyand that accepted the store would serve until killed.
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			out, err := exec.CommandContext(ctx, buildCmd(t, "../hoyand"), "-dir", network, "-k", "1",
				"-http", "127.0.0.1:0", "-store", path).CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("hoyand booted on the store and served:\n%s", out)
			}
			if code := exitCode(t, err); code != 1 {
				t.Fatalf("exit %d, want 1\n%s", code, out)
			}
			return string(out)
		}},
		{"POST /v1/snapshots", func(t *testing.T, path string) string {
			svc, err := httpapi.New(net, snap, 1)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()
			resp, err := http.Post(srv.URL+"/v1/snapshots", "application/json", strings.NewReader(fmt.Sprintf(`{"path":%q}`, path)))
			code, said := refusal(t, resp, err)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", code, said)
			}
			return said
		}},
	}
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store.json")
			if err := store.Save(path); err != nil {
				t.Fatal(err)
			}
			_, rule := hoyan.LoadResultStore(path)
			var ce *hoyan.CorruptStoreError
			if !errors.As(rule, &ce) || ce.Usable {
				t.Fatalf("the rule: want an unusable store, got %v", rule)
			}
			if said := door.open(t, path); !strings.Contains(said, rule.Error()) {
				t.Fatalf("the door did not give the rule's answer %q:\n%s", rule, said)
			}
		})
	}
}

// TestVetUnknownAnalyzerOneMessage: `hoyan vet -only` and GET
// /v1/vet?only= resolve names through vet.Select, so an unknown analyzer
// is refused in the same words — naming the ones there are — at both.
func TestVetUnknownAnalyzerOneMessage(t *testing.T) {
	const network = "../../examples/networks/small"
	_, want := vet.Select("cutsound, nosuch")
	if want == nil || !strings.Contains(want.Error(), `"nosuch"`) || !strings.Contains(want.Error(), "cutsound") {
		t.Fatalf("vet.Select: %v", want)
	}

	out, err := exec.Command(buildCmd(t, "."), "vet", "-dir", network, "-only", "cutsound, nosuch").CombinedOutput()
	if code := exitCode(t, err); code != 2 {
		t.Fatalf("hoyan vet -only nosuch exited %d, want 2\n%s", code, out)
	}
	if got := strings.TrimSpace(string(out)); got != "hoyan: "+want.Error() {
		t.Fatalf("hoyan vet said %q, want %q", got, "hoyan: "+want.Error())
	}

	net, snap, err := gen.LoadDir(network)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := httpapi.New(net, snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/vet?only=" + url.QueryEscape("cutsound, nosuch"))
	if code, said := refusal(t, resp, err); code != http.StatusBadRequest || said != want.Error() {
		t.Fatalf("/v1/vet said %d %q, want 400 %q", code, said, want)
	}
}
