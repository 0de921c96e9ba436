package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hoyan"
	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
	"hoyan/internal/httpapi"
	"hoyan/internal/topo"
	"hoyan/internal/vet"
)

// The load is sized for a two-core box and fixed, so that two hosts
// disagree about speed and not about what was run.
const (
	sweepWorkers = 2
	distWorkers  = 2
	queryClients = 2
	setupRepeats = 25
)

// runConfig is one invocation's parameters.
type runConfig struct {
	wl      workload
	seed    int64
	seconds float64
	trace   bool
	out     string
	// querySlice is the timed part of one pass's query phase.
	querySlice time.Duration
	// probe times the reference kernel: refProbe, except in tests, whose
	// binary cannot be re-executed as the kernel's process.
	probe func() (time.Duration, error)
}

// run drives the pipeline for one workload and seed and owns everything
// measured on the way.
type run struct {
	cfg  runConfig
	in   *inputs
	rec  *recorder
	tr   *tracer // nil unless tracing
	work string

	lastProbe time.Duration
	probes    []float64 // every reference-kernel time of the run, in seconds
	probeErr  error     // the first failure to run the kernel; fails the run

	client *http.Client
	edit   *liveService   // long-lived service the edits go to
	nextEd int            // index of the next edit of the series
	edited map[string]int // edit pairs timed so far, by kind

	attempted, failed int
	problems          []string
	digest            string // verdict digest every executor and pass must reproduce
	truth             *truth

	passes  int
	queries int
}

// boundary ends one timed interval and begins the next: a collection, so
// that no interval pays for its predecessor's garbage, then the reference
// kernel. The samples taken since the previous boundary are scaled by
// what the kernel took before and after them (see refkernel.go).
func (r *run) boundary() {
	runtime.GC()
	p, err := r.cfg.probe()
	if err != nil {
		if r.probeErr == nil {
			r.probeErr = err
		}
		return
	}
	if r.lastProbe > 0 {
		r.rec.rescale(2 * refNominal.Seconds() / (r.lastProbe + p).Seconds())
	}
	r.lastProbe = p
	r.probes = append(r.probes, p.Seconds())
}

// ops counts n attempted operations that share one outcome; a false ok
// counts them failed and keeps the first few explanations for the report.
func (r *run) ops(n int, ok bool, format string, args ...any) {
	r.attempted += n
	if ok || n == 0 {
		return
	}
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) op(ok bool, format string, args ...any) { r.ops(1, ok, format, args...) }

// liveService is an httpapi.Service behind a real loopback listener.
type liveService struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(svc *httpapi.Service) (*liveService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveService{url: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: svc.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

// stop closes the service and the client's connections to it. Every
// request has been answered by now, so there is nothing to drain — and a
// graceful Shutdown would wait five seconds on any connection the client
// dialled ahead and never used.
func (s *liveService) stop(client *http.Client) {
	client.CloseIdleConnections()
	s.srv.Close()
	<-s.done
}

// execute runs set-up, the passes and the closing checks.
func (r *run) execute() error {
	r.rec = newRecorder()
	r.edited = map[string]int{}
	if r.cfg.trace {
		r.tr = &tracer{t0: time.Now()}
	}
	r.work = workDir(r.cfg.out, r.cfg.wl.name)
	defer os.RemoveAll(r.work)
	transport := &http.Transport{MaxIdleConns: 2 * queryClients, MaxIdleConnsPerHost: 2 * queryClients}
	defer transport.CloseIdleConnections()
	r.client = &http.Client{Transport: transport, Timeout: 60 * time.Second}

	// Set-up, several times over so one slow directory write does not
	// decide the figure; the last one's inputs are the run's.
	dir := filepath.Join(r.work, "configs")
	if r.boundary(); r.probeErr != nil {
		return r.probeErr
	}
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		in, err := prepare(r.cfg.wl, r.cfg.seed, dir)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.rec.seconds("setup_s", time.Since(t0))
		r.in = in
	}
	r.boundary()

	if err := r.bootEditService(); err != nil {
		return err
	}
	defer r.edit.stop(r.client)

	r.boundary()
	start := time.Now()
	for {
		t0 := time.Now()
		if err := r.pass(); err != nil {
			return fmt.Errorf("pass %d: %w", r.passes, err)
		}
		r.passes++
		// Stop at the whole number of passes nearest to the budget.
		elapsed := time.Since(start).Seconds()
		if elapsed+time.Since(t0).Seconds()/2 >= r.cfg.seconds {
			break
		}
	}
	if err := r.checkIncrementalState(); err != nil {
		return err
	}
	for _, m := range r.rec.mismatched {
		r.op(false, "count changed between passes: %s", m)
	}
	r.finish()
	return r.probeErr
}

// pass is one traversal of the pipeline from the config directory:
// cold verify and publish, the same job on the modular and distributed
// executors, a query slice against what was just published, and one
// edit with its rollback on the long-lived service. It starts on a
// boundary and ends on one.
func (r *run) pass() error {
	k := r.cfg.wl.k

	// Cold: config directory → verdicts → live on /v1/query.
	t0 := time.Now()
	tnet, snap, err := gen.LoadDir(r.in.dir)
	if err != nil {
		return err
	}
	n := hoyan.NetworkFrom(tnet, snap)
	model, err := core.Assemble(tnet, snap, behavior.TrueProfiles())
	if err != nil {
		return err
	}
	if _, err := vet.RunBudget(model, vet.Analyzers(), k); err != nil {
		return err
	}
	tSweep := time.Now()
	rep, store, err := n.SweepBaseline(hoyan.Options{K: k}, sweepWorkers)
	if err != nil {
		return err
	}
	sweepW2 := time.Since(tSweep)
	verify := time.Since(t0)
	t1 := time.Now()
	if err := store.Save(filepath.Join(r.work, "store.json")); err != nil {
		return err
	}
	svc, err := httpapi.New(tnet, snap, k)
	if err != nil {
		return err
	}
	live, err := serve(svc)
	if err != nil {
		return err
	}
	defer live.stop(r.client)
	id, err := svc.PublishStore(store)
	if err != nil {
		return err
	}
	err = r.awaitSnapshot(live.url, id)
	publish := time.Since(t1)
	r.op(err == nil, "cold publish never went live: %v", err)
	r.rec.seconds("verify_s", verify)
	r.rec.seconds("publish_s", publish)
	r.rec.seconds("cold_to_live_s", verify+publish)
	r.checkDigest("local", digestReport(rep), len(rep.Prefixes))
	if r.tr != nil {
		r.rec.seconds("hoyan.sweep_s", sweepW2)
	}

	// The same job on the other two executors.
	r.boundary()
	t0 = time.Now()
	mrep, err := n.Sweep(hoyan.Options{K: k, Modular: true}, sweepWorkers)
	if err != nil {
		return err
	}
	r.rec.seconds("verify_modular_s", time.Since(t0))
	r.checkDigest("modular", digestReport(mrep), len(mrep.Prefixes))

	r.boundary()
	dres, took, err := runDist(tnet, snap, k)
	if err != nil {
		return err
	}
	r.rec.seconds("verify_dist_s", took)
	r.checkDigest("dist", digestDist(dres), len(dres.ByPrefix))

	if r.tr != nil {
		r.rec.count("hoyan.modular_passes", mrep.Modular.Passes)
		r.rec.count("hoyan.modular_refused", mrep.Modular.Refused)
		r.rec.count("dist.requeued", dres.Requeued)
		r.rec.count("dist.retried", dres.Retried)
		r.rec.count("dist.hedged", dres.Hedged)
		r.rec.sample("dist.overhead_ratio", "ratio", took.Seconds()/sweepW2.Seconds())
		r.boundary()
		if err := r.traceLayers(tnet, snap, store, sweepW2); err != nil {
			return err
		}
	}

	// Queries against the snapshot this pass published. The first pass
	// checks every answer the verdicts pin before any is timed.
	if r.truth == nil {
		r.truth = newTruth(rep, dres)
		if err := r.checkDeck(live.url); err != nil {
			return err
		}
	}
	r.boundary()
	if err := r.querySlice(live.url); err != nil {
		return err
	}

	// One edit and its rollback, each timed from the POST to the first
	// answer served from the snapshot the resweep published.
	r.boundary()
	e := r.in.edits[r.nextEd%len(r.in.edits)]
	r.nextEd++
	r.edited[e.Kind]++
	for _, lines := range [][]string{e.Apply, e.Rollback} {
		resp, took, err := r.resweep(httpapi.ResweepRequest{
			Updates: []httpapi.ResweepUpdate{{Device: e.Device, Lines: lines}}, Workers: sweepWorkers})
		if err != nil {
			return err
		}
		r.op(resp.Incremental && resp.SnapshotError == "", "edit on %s: incremental=%v snapshot error %q",
			e.Device, resp.Incremental, resp.SnapshotError)
		r.rec.seconds("edit_to_live_s", took)
		if r.tr != nil {
			r.rec.seconds("httpapi.resweep_s", resp.posted)
		}
	}
	r.boundary()
	return nil
}

// checkDigest gates one executor's verdicts: every class it verified is
// an operation, and all of them fail when the digest is not the run's.
func (r *run) checkDigest(executor, digest string, prefixes int) {
	if r.digest == "" {
		r.digest = digest
	}
	r.ops(prefixes, digest == r.digest, "%s executor: verdict digest %s, want %s", executor, digest, r.digest)
}

// digestReport is the canonical verdict digest: every prefix's minimal
// failure count and weakest router, then every violation, sorted.
func digestReport(rep *hoyan.SweepReport) string {
	lines := make([]string, 0, len(rep.Prefixes)+len(rep.Violations))
	for _, p := range rep.Prefixes {
		lines = append(lines, fmt.Sprintf("P %s %d %s", p.Prefix, p.MinFailures, p.WeakestRouter))
	}
	for _, v := range rep.Violations {
		lines = append(lines, fmt.Sprintf("V %s %s %s %s", v.Prefix, v.Router, v.Kind, v.Details))
	}
	return digestLines(lines)
}

// digestDist folds a distributed result's per-router verdicts the way a
// local sweep does (first minimum in node order, unreachable routers as
// violations) and digests them.
func digestDist(res *dist.Result) string {
	var lines []string
	for prefix, sums := range res.ByPrefix {
		min, weakest := -1, ""
		for _, s := range sums {
			switch {
			case !s.Reachable:
				lines = append(lines, fmt.Sprintf("V %s %s reachability no route with all links up", prefix, s.Router))
			case s.MinFailures >= 0 && (min == -1 || s.MinFailures < min):
				min, weakest = s.MinFailures, s.Router
			}
		}
		lines = append(lines, fmt.Sprintf("P %s %d %s", prefix, min, weakest))
	}
	return digestLines(lines)
}

func digestLines(lines []string) string {
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// runDist verifies the class partition over fresh loopback workers. The
// interval holds what a distributed sweep pays and a local one does not:
// worker start, the coordinator's own assembly, and the wire.
func runDist(tnet *topo.Network, snap config.Snapshot, k int) (*dist.Result, time.Duration, error) {
	t0 := time.Now()
	var addrs []string
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < distWorkers; i++ {
		wk := dist.NewWorker(tnet, snap)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			wk.Serve(ln) // returns once Close has drained the connections
		}()
		addrs = append(addrs, ln.Addr().String())
		stops = append(stops, func() {
			wk.Close()
			<-done
		})
	}
	model, err := core.Assemble(tnet, snap, behavior.TrueProfiles())
	if err != nil {
		return nil, 0, err
	}
	var jobs [][]string
	for _, cls := range model.Classes() {
		job := make([]string, len(cls.Members))
		for i, p := range cls.Members {
			job[i] = p.String()
		}
		jobs = append(jobs, job)
	}
	res, err := (&dist.Coordinator{Addrs: addrs}).RunClasses(jobs, k)
	if err != nil {
		return nil, 0, err
	}
	return res, time.Since(t0), nil
}

// truth holds the answers the verdicts pin: each prefix's class-wide
// minimal failure count from the local report and each router's verdict
// from the distributed result, which is per router.
type truth struct {
	classMin map[string]int
	router   map[string]map[string]dist.RouterSummary
}

func newTruth(rep *hoyan.SweepReport, dres *dist.Result) *truth {
	t := &truth{classMin: map[string]int{}, router: map[string]map[string]dist.RouterSummary{}}
	for _, p := range rep.Prefixes {
		t.classMin[p.Prefix] = p.MinFailures
	}
	for prefix, sums := range dres.ByPrefix {
		m := map[string]dist.RouterSummary{}
		for _, s := range sums {
			m[s.Router] = s
		}
		t.router[prefix] = m
	}
	return t
}

// get fetches one /v1/query answer.
func (r *run) get(base, path string) (int, *httpapi.QueryResponse, error) {
	resp, err := r.client.Get(base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var qr httpapi.QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return resp.StatusCode, nil, err
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, &qr, nil
}

// awaitSnapshot polls /v1/query until the named snapshot answers.
func (r *run) awaitSnapshot(base, id string) error {
	path := "/v1/query?kind=minfail&prefix=" + r.in.prefixes[0]
	for try := 0; try < 200; try++ {
		code, qr, err := r.get(base, path)
		if err != nil {
			return err
		}
		if code == http.StatusOK && qr.Snapshot == id {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("snapshot %s did not answer %s", id, path)
}

// checkDeck asks every distinct min-fail and all-links-up reach query of
// the deck once and compares the answer with the sweep's verdict.
func (r *run) checkDeck(base string) error {
	seen := map[string]bool{}
	for _, q := range r.in.deck {
		if seen[q.URL] || q.Kind == "impact" || (q.Kind == "reach" && !q.AllUp) {
			continue
		}
		seen[q.URL] = true
		code, qr, err := r.get(base, q.URL)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			r.op(false, "%s: status %d", q.URL, code)
			continue
		}
		switch {
		case q.Kind == "reach":
			want := r.truth.router[q.Prefix][q.Router].Reachable
			r.op(qr.Reachable != nil && *qr.Reachable == want, "%s: reachable %v, sweep says %v", q.URL, qr.Reachable, want)
		case q.Router == "":
			want := r.truth.classMin[q.Prefix]
			r.op(qr.MinFailures != nil && *qr.MinFailures == want, "%s: min failures %v, sweep says %d", q.URL, qr.MinFailures, want)
		default:
			// An unreachable router answers 0; the distributed summary's
			// zero value says the same.
			want := r.truth.router[q.Prefix][q.Router].MinFailures
			r.op(qr.MinFailures != nil && *qr.MinFailures == want, "%s: min failures %v, sweep says %d", q.URL, qr.MinFailures, want)
		}
	}
	return nil
}

// querySlice runs the closed-loop clients for one slice: callers of
// /v1/query are audit scripts that wait for each reply, so each client
// sends its next request when the previous one has been read. A short
// untimed lead-in opens the connections.
func (r *run) querySlice(base string) error {
	type shard struct {
		lat  map[string][]float64
		ok   int
		bad  int
		fail error
	}
	shards := make([]shard, queryClients)
	fire := func(c int, until time.Time, record bool) {
		sh := &shards[c]
		i := (c*len(r.in.deck)/queryClients + r.queries) % len(r.in.deck)
		for time.Now().Before(until) {
			q := r.in.deck[i%len(r.in.deck)]
			i++
			t0 := time.Now()
			resp, err := r.client.Get(base + q.URL)
			if err != nil {
				sh.fail = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if !record {
				continue
			}
			if resp.StatusCode != http.StatusOK {
				sh.bad++
				continue
			}
			sh.ok++
			sh.lat[q.Kind] = append(sh.lat[q.Kind], float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	both := func(d time.Duration, record bool) time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		until := t0.Add(d)
		for c := 0; c < queryClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fire(c, until, record)
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	for c := range shards {
		shards[c].lat = map[string][]float64{}
	}
	both(r.cfg.querySlice/10, false)
	elapsed := both(r.cfg.querySlice, true)
	var ok int
	var lat []float64
	byKind := map[string][]float64{}
	for _, sh := range shards {
		if sh.fail != nil {
			return sh.fail
		}
		ok += sh.ok
		r.ops(sh.ok, true, "")
		r.ops(sh.bad, false, "%d queries answered other than 200", sh.bad)
		for kind, l := range sh.lat {
			byKind[kind] = append(byKind[kind], l...)
			lat = append(lat, l...)
		}
	}
	r.queries += ok
	r.rec.sample("query_qps", "1/s", float64(ok)/elapsed.Seconds())
	if r.tr != nil {
		r.rec.sample("httpapi.query_p50_us", "us", quantile(lat, 0.5))
		r.rec.sample("httpapi.query_p99_us", "us", quantile(lat, 0.99))
		r.rec.sample("httpapi.query_p999_us", "us", quantile(lat, 0.999))
		for _, kind := range []string{"reach", "minfail", "impact"} {
			r.rec.sample("httpapi."+kind+"_p50_us", "us", quantile(byKind[kind], 0.5))
		}
	}
	return nil
}

// bootEditService starts the long-lived service the edits go to and
// seeds its baseline with one cold resweep, as hoyand does after boot.
func (r *run) bootEditService() error {
	tnet, snap, err := gen.LoadDir(r.in.dir)
	if err != nil {
		return err
	}
	svc, err := httpapi.New(tnet, snap, r.cfg.wl.k)
	if err != nil {
		return err
	}
	if r.edit, err = serve(svc); err != nil {
		return err
	}
	// One more untimed resweep puts in place what the edits need and their
	// rollbacks cannot remove, so that every rollback restores this state.
	prime := httpapi.ResweepRequest{Workers: sweepWorkers}
	for _, e := range r.in.edits {
		if len(e.Prime) > 0 {
			prime.Updates = append(prime.Updates, httpapi.ResweepUpdate{Device: e.Device, Lines: e.Prime})
		}
	}
	for _, req := range []httpapi.ResweepRequest{{Workers: sweepWorkers}, prime} {
		resp, _, err := r.resweep(req)
		if err != nil {
			r.edit.stop(r.client)
			return err
		}
		r.op(resp.SnapshotError == "", "baseline resweep: snapshot error %q", resp.SnapshotError)
	}
	return nil
}

// resweepResult is a /v1/resweep answer and how long the POST took.
type resweepResult struct {
	httpapi.ResweepResponse
	posted time.Duration
}

// resweep posts one /v1/resweep to the edit service and waits until the
// snapshot it published answers a query; the duration covers both.
func (r *run) resweep(req httpapi.ResweepRequest) (*resweepResult, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := r.client.Post(r.edit.url+"/v1/resweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, 0, fmt.Errorf("POST /v1/resweep: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out resweepResult
	if err := json.NewDecoder(resp.Body).Decode(&out.ResweepResponse); err != nil {
		return nil, 0, err
	}
	out.posted = time.Since(t0)
	if out.SnapshotError == "" {
		if err := r.awaitSnapshot(r.edit.url, out.Snapshot); err != nil {
			return nil, 0, err
		}
	}
	return &out, time.Since(t0), nil
}

// checkIncrementalState applies one more edit and compares what the
// service then serves with what a cold sweep of the same configuration
// serves: replay must never change a verdict.
func (r *run) checkIncrementalState() error {
	e := r.in.edits[r.nextEd%len(r.in.edits)]
	inc, _, err := r.resweep(httpapi.ResweepRequest{
		Updates: []httpapi.ResweepUpdate{{Device: e.Device, Lines: e.Apply}}, Workers: sweepWorkers})
	if err != nil {
		return err
	}
	incState, err := r.servedState(inc)
	if err != nil {
		return err
	}
	cold, _, err := r.resweep(httpapi.ResweepRequest{NoIncremental: true, Workers: sweepWorkers})
	if err != nil {
		return err
	}
	coldState, err := r.servedState(cold)
	if err != nil {
		return err
	}
	r.op(inc.Incremental && !cold.Incremental && incState == coldState,
		"after %s edit on %s the incremental state differs from a cold sweep", e.Kind, e.Device)
	return nil
}

// servedState digests the edit service's answers: every prefix's
// class-wide minimal failure count plus the resweep's violations.
func (r *run) servedState(resp *resweepResult) (string, error) {
	var lines []string
	for _, p := range r.in.prefixes {
		code, qr, err := r.get(r.edit.url, "/v1/query?kind=minfail&prefix="+p)
		if err != nil {
			return "", err
		}
		if code != http.StatusOK || qr.MinFailures == nil {
			return "", fmt.Errorf("minfail %s: status %d", p, code)
		}
		lines = append(lines, fmt.Sprintf("P %s %d", p, *qr.MinFailures))
	}
	for _, v := range resp.Violations {
		lines = append(lines, fmt.Sprintf("V %s %s %s %s", v.Prefix, v.Router, v.Kind, v.Details))
	}
	return digestLines(lines), nil
}

// finish reads the figures that belong to the process and not to a pass.
func (r *run) finish() {
	if r.tr == nil {
		r.rec.set("peak_rss_mb", "MB", float64(readVmHWM())/(1<<20))
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.rec.set("runtime.peak_heap_mb", "MB", float64(ms.HeapSys)/(1<<20))
}
