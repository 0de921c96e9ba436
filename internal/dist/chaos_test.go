package dist

import (
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"hoyan/internal/faultnet"
	"hoyan/internal/gen"
)

// fastOpts keeps chaos runs snappy: short backoffs, tight dials.
func fastOpts() Options {
	o := DefaultOptions()
	o.DialTimeout = time.Second
	o.RequestTimeout = 10 * time.Second
	o.BackoffBase = 5 * time.Millisecond
	o.BackoffMax = 40 * time.Millisecond
	return o
}

// startFaultWorker spins up one worker behind a fault-injecting listener.
func startFaultWorker(t *testing.T, w *gen.WAN, cfg faultnet.Config) (addr string, stop func()) {
	t.Helper()
	wk := NewWorker(w.Net, w.Snap)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faultnet.Wrap(ln, cfg)
	done := make(chan error, 1)
	go func() { done <- wk.Serve(fl) }()
	return ln.Addr().String(), func() {
		wk.Close()
		if err := <-done; err != nil {
			t.Errorf("worker serve: %v", err)
		}
	}
}

// responseBytes measures the wire size of one request/response exchange
// for the WAN, so byte-budget faults can be aimed at "mid second job"
// deterministically regardless of topology size.
func responseBytes(t *testing.T, w *gen.WAN, prefix string, k int) int {
	t.Helper()
	wk := NewWorker(w.Net, w.Snap)
	resp := wk.answer(Request{Prefix: prefix, K: k}, &connSim{})
	if resp.Error != "" {
		t.Fatalf("answer: %s", resp.Error)
	}
	rb, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := json.Marshal(Request{Prefix: prefix, K: k})
	if err != nil {
		t.Fatal(err)
	}
	return len(rb) + len(qb) + 2 // two newlines
}

// runPrefixes verifies prefixes one by one — the unclassed run: a plan
// of singleton classes.
func runPrefixes(c *Coordinator, prefixes []string, k int) (*Result, error) {
	classes := make([][]string, len(prefixes))
	for i, p := range prefixes {
		classes[i] = []string{p}
	}
	return c.RunClasses(classes, k)
}

func wanPrefixes(w *gen.WAN) []string {
	var prefixes []string
	for _, p := range w.Prefixes() {
		prefixes = append(prefixes, p.String())
	}
	return prefixes
}

// Regression for the job-loss bug: the old coordinator failed the whole
// run on the first worker error and silently lost any prefix a dying
// worker had pulled from the queue. A worker whose connections die after
// ~1.5 exchanges loses a job mid-flight on every connection; the run must
// still complete 100% of prefixes by re-queueing the in-flight job and
// reconnecting.
func TestWorkerConnDeathRequeuesInFlightJobs(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	prefixes := wanPrefixes(w)
	if len(prefixes) < 3 {
		t.Fatalf("need >=3 prefixes, got %d", len(prefixes))
	}
	per := responseBytes(t, w, prefixes[0], 2)
	addr, stop := startFaultWorker(t, w, faultnet.Config{DropAfterBytes: per + per/2})
	defer stop()

	coord := &Coordinator{Addrs: []string{addr}, Opts: fastOpts()}
	res, err := runPrefixes(coord, prefixes, 2)
	if err != nil {
		t.Fatalf("run with flaky worker: %v", err)
	}
	if len(res.ByPrefix) != len(prefixes) {
		t.Fatalf("completed %d/%d prefixes", len(res.ByPrefix), len(prefixes))
	}
	if res.Requeued < 1 {
		t.Fatalf("expected at least one re-queued job, got %d (old coordinator lost these)", res.Requeued)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("unexpected failures: %v", res.Failed)
	}
}

// Acceptance chaos test: 4 workers, 2 of them faultnet-dropped (their
// connections die on the first exchange, and they are eventually
// abandoned). The run must still complete 100% of prefixes through the
// surviving workers.
func TestChaosTwoOfFourWorkersDieMidRun(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	prefixes := wanPrefixes(w)

	var addrs []string
	var stops []func()
	defer func() {
		for _, s := range stops {
			s()
		}
	}()
	for i := 0; i < 2; i++ { // healthy
		a, s := startFaultWorker(t, w, faultnet.Config{})
		addrs, stops = append(addrs, a), append(stops, s)
	}
	for i := 0; i < 2; i++ { // every connection dies on the first bytes
		a, s := startFaultWorker(t, w, faultnet.Config{DropAfterBytes: 1})
		addrs, stops = append(addrs, a), append(stops, s)
	}

	coord := &Coordinator{Addrs: addrs, Opts: fastOpts()}
	res, err := runPrefixes(coord, prefixes, 2)
	if err != nil {
		t.Fatalf("run with 2/4 dead workers: %v", err)
	}
	if len(res.ByPrefix) != len(prefixes) {
		t.Fatalf("completed %d/%d prefixes", len(res.ByPrefix), len(prefixes))
	}
	// Only the healthy workers can have completed jobs.
	for _, dead := range addrs[2:] {
		if res.Assigned[dead] != 0 {
			t.Fatalf("dead worker %s completed %d jobs", dead, res.Assigned[dead])
		}
	}
}

// With every worker dead and AllowPartial set, Run degrades gracefully:
// no error, and a structured report of failed prefixes and worker errors.
func TestAllWorkersDeadAllowPartial(t *testing.T) {
	// Reserve two addresses nobody listens on.
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		ln.Close()
	}
	prefixes := []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"}

	opts := fastOpts()
	opts.AllowPartial = true
	coord := &Coordinator{Addrs: addrs, Opts: opts}
	res, err := runPrefixes(coord, prefixes, 1)
	if err != nil {
		t.Fatalf("AllowPartial must not error: %v", err)
	}
	if len(res.ByPrefix) != 0 {
		t.Fatalf("no worker ever lived, yet %d prefixes completed", len(res.ByPrefix))
	}
	if len(res.Failed) != len(prefixes) {
		t.Fatalf("failure report covers %d/%d prefixes: %v", len(res.Failed), len(prefixes), res.Failed)
	}
	for _, f := range res.Failed {
		if f.LastError == "" {
			t.Fatalf("failure without a reason: %+v", f)
		}
	}
	if len(res.WorkerErrors) == 0 {
		t.Fatal("expected per-worker error log")
	}

	// The same run without AllowPartial is an error.
	coord.Opts.AllowPartial = false
	if _, err := runPrefixes(coord, prefixes, 1); err == nil {
		t.Fatal("all-dead pool without AllowPartial must error")
	}
}

// A worker that serves a couple of jobs and then dies for good (its
// listener refuses all reconnects) yields a partial result: the completed
// subset plus a failure report covering exactly the remainder.
func TestPartialResultsAfterPermanentWorkerDeath(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	prefixes := wanPrefixes(w)
	if len(prefixes) < 3 {
		t.Fatalf("need >=3 prefixes, got %d", len(prefixes))
	}
	per := responseBytes(t, w, prefixes[0], 2)
	// First connection serves ~1.5 jobs then drops; reconnects refused.
	addr, stop := startFaultWorker(t, w, faultnet.Config{
		DropAfterBytes: per + per/2,
		RefuseAfter:    1,
	})
	defer stop()

	opts := fastOpts()
	opts.AllowPartial = true
	coord := &Coordinator{Addrs: []string{addr}, Opts: opts}
	res, err := runPrefixes(coord, prefixes, 2)
	if err != nil {
		t.Fatalf("AllowPartial must not error: %v", err)
	}
	if len(res.ByPrefix) == 0 {
		t.Fatal("the first connection completed at least one job")
	}
	if len(res.Failed) == 0 {
		t.Fatal("the worker died for good; some prefixes must be reported failed")
	}
	if got := len(res.ByPrefix) + len(res.Failed); got != len(prefixes) {
		t.Fatalf("completed %d + failed %d != %d total", len(res.ByPrefix), len(res.Failed), len(prefixes))
	}
	for _, f := range res.Failed {
		if _, dup := res.ByPrefix[f.Prefix]; dup {
			t.Fatalf("%s both completed and failed", f.Prefix)
		}
	}
}

// Hedged re-dispatch: a blackholed worker swallows the only job (its
// reads never return, so no response ever comes). A second worker that
// comes up late sits idle; after HedgeAfter the coordinator re-dispatches
// the straggling prefix to it and the run completes without waiting out
// the full request timeout.
func TestHedgedRedispatchRescuesStraggler(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	prefixes := wanPrefixes(w)[:1]

	bhAddr, bhStop := startFaultWorker(t, w, faultnet.Config{BlackholeReads: true})
	defer bhStop()

	// Reserve an address for the good worker but start it only after the
	// blackholed worker has certainly pulled the job.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	goodAddr := rsv.Addr().String()
	rsv.Close()

	var stopGood func()
	var mu sync.Mutex
	time.AfterFunc(150*time.Millisecond, func() {
		wk := NewWorker(w.Net, w.Snap)
		ln, err := net.Listen("tcp", goodAddr)
		if err != nil {
			t.Errorf("late worker listen: %v", err)
			return
		}
		done := make(chan error, 1)
		go func() { done <- wk.Serve(ln) }()
		mu.Lock()
		stopGood = func() {
			wk.Close()
			<-done
		}
		mu.Unlock()
	})
	defer func() {
		mu.Lock()
		s := stopGood
		mu.Unlock()
		if s != nil {
			s()
		}
	}()

	opts := fastOpts()
	opts.RequestTimeout = 30 * time.Second // hedging, not timeout, must rescue
	opts.HedgeAfter = 50 * time.Millisecond
	opts.MaxConnFailures = 50 // keep redialing until the late worker is up
	coord := &Coordinator{Addrs: []string{bhAddr, goodAddr}, Opts: opts}

	start := time.Now()
	res, err := runPrefixes(coord, prefixes, 2)
	if err != nil {
		t.Fatalf("hedged run: %v", err)
	}
	if len(res.ByPrefix) != 1 {
		t.Fatalf("completed %d/1 prefixes", len(res.ByPrefix))
	}
	if res.Hedged < 1 {
		t.Fatalf("expected a hedged dispatch, got %d", res.Hedged)
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Fatalf("hedge did not rescue the straggler in time (%v)", d)
	}
}

// The worker assembles its model once and shares it across connections;
// concurrent coordinator connections must be race-free (run under -race).
func TestConcurrentConnectionsShareWorkerModel(t *testing.T) {
	w, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop := startWorkers(t, w, 1)
	defer stop()
	prefixes := wanPrefixes(w)[:2]

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			coord := &Coordinator{Addrs: addrs, Opts: fastOpts()}
			res, err := runPrefixes(coord, prefixes, 1)
			if err != nil {
				errs <- err
				return
			}
			if len(res.ByPrefix) != len(prefixes) {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
