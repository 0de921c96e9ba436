package dist

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/igp"
)

// TestSharedBuildOutsideLock pins how the Shared LRU builds: one key is
// built once however many requests race for it, two keys build at the
// same time, and nothing else behind sharedMu waits for either. Each
// build below refuses to finish until the other has started, so a worker
// that serialized them — or held the mutex while building — would hang
// here rather than pass slowly.
func TestSharedBuildOutsideLock(t *testing.T) {
	wa, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(wa.Net, wa.Snap)
	m, err := w.sources[""].assemble()
	if err != nil {
		t.Fatal(err)
	}
	var builds [2]atomic.Int32
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	build := func(i int) func() *core.Shared {
		return func() *core.Shared {
			if builds[i].Add(1) == 1 {
				close(started[i])
			}
			select {
			case <-started[1-i]:
			case <-time.After(30 * time.Second):
				t.Errorf("build %d: the other key's build never started: builds are serialized", i)
			}
			opts := core.DefaultOptions()
			opts.K = 1 + i
			return core.NewShared(m, opts)
		}
	}
	const racers = 4
	got := make([][2]*core.Shared, racers)
	var wg sync.WaitGroup
	for r := 0; r < racers; r++ {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[r][i] = w.cachedShared(sharedKey{model: "m", k: 1 + i}, build(i))
			}()
		}
	}
	// With both builds in flight the mutex must be free.
	<-started[0]
	<-started[1]
	if ev := w.Evictions(); ev != 0 {
		t.Errorf("%d evictions with two of four slots in use", ev)
	}
	w.AddModel(wa.Net, wa.Snap)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if n := builds[i].Load(); n != 1 {
			t.Errorf("key %d was built %d times by %d racing requests", i, n, racers)
		}
		for r := 1; r < racers; r++ {
			if got[r][i] != got[0][i] || got[r][i] == nil {
				t.Errorf("key %d: request %d got another Shared than request 0", i, r)
			}
		}
	}
}

// policyEdit returns wa's snapshot with one more policy term on one PE:
// another model (another ModelHash) that reads the same IGP inputs.
func policyEdit(t *testing.T, wa *gen.WAN) config.Snapshot {
	t.Helper()
	pe := wa.PEs[0]
	snap, err := wa.Snap.Apply([]config.Update{{Device: pe, Lines: []string{
		"ip prefix-list EDIT permit " + wa.Prefixes()[0].String(),
		"route-policy TAG permit 5", " match prefix-list EDIT", " set local-preference 180",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestWorkerReusesResidentMemo: a worker asked for a second model that
// differs from a resident one by a policy edit builds its Shared — which
// its region passes share — without a single IGP propagation, and the
// verdicts are those of a worker that never saw the first model.
func TestWorkerReusesResidentMemo(t *testing.T) {
	wa, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	edited := policyEdit(t, wa)
	hashA, hashB := ModelHash(wa.Net, wa.Snap), ModelHash(wa.Net, edited)
	if hashA == hashB {
		t.Fatal("the policy edit did not change the model hash")
	}
	prefix := wa.Prefixes()[0].String()
	ask := func(w *Worker, model, region string) Response {
		t.Helper()
		resp := w.answer(Request{Prefix: prefix, K: 2, Model: model, Region: region}, &connSim{})
		if resp.Error != "" {
			t.Fatalf("model %.8s region %q: %s", model, region, resp.Error)
		}
		return resp
	}
	count := func(f func()) int64 {
		before := igp.Propagations()
		f()
		return igp.Propagations() - before
	}

	w := NewWorker(wa.Net, wa.Snap)
	w.AddModel(wa.Net, edited)
	if n := count(func() { ask(w, hashA, "") }); n == 0 {
		t.Fatal("the first model's Shared propagated nothing")
	}
	var warm Response
	if n := count(func() { warm = ask(w, hashB, "") }); n != 0 {
		t.Fatalf("the edited model ran %d propagations next to a resident memo for the same IGP inputs", n)
	}
	fresh := NewWorker(wa.Net, edited)
	cold := ask(fresh, "", "")
	if len(warm.Summaries) == 0 || len(warm.Summaries) != len(cold.Summaries) {
		t.Fatalf("%d verdicts warm, %d cold", len(warm.Summaries), len(cold.Summaries))
	}
	for i := range cold.Summaries {
		if warm.Summaries[i] != cold.Summaries[i] {
			t.Fatalf("verdict %d: %+v on the reused memo, %+v cold", i, warm.Summaries[i], cold.Summaries[i])
		}
	}
	// Region passes of the edited model run on its resident Shared.
	m, _ := w.sources[hashB].assemble()
	pt, err := core.NewPartition(m)
	if err != nil {
		t.Fatal(err)
	}
	if n := count(func() {
		for r := 0; r < pt.NumRegions(); r++ {
			w.answer(Request{Prefix: prefix, K: 2, Model: hashB, Region: pt.RegionName(r)}, &connSim{})
		}
	}); n != 0 {
		t.Fatalf("region passes of the edited model ran %d propagations", n)
	}
	// Another failure budget is another key: nothing resident applies.
	if n := count(func() { w.answer(Request{Prefix: prefix, K: 1, Model: hashB}, &connSim{}) }); n == 0 {
		t.Fatal("K=1 was served from RIBs built for K=2")
	}
}

// spyPool is Local(n) keeping the Shared of every executor it opened.
type spyPool struct {
	n       Local
	shareds []*core.Shared
}

func (s *spyPool) open(p *Plan, units int) ([]executor, Options, *igp.Memo, error) {
	execs, opts, memo, err := s.n.open(p, units)
	for _, e := range execs {
		s.shareds = append(s.shareds, e.(*localExecutor).sh)
	}
	return execs, opts, memo, err
}

// TestModularRunHoldsOneShared: a region is an argument of the pass, not
// of the Shared. A modular Local(2) run on gen.Medium runs every executor
// on exactly one Shared, the run's, and propagates exactly that Shared's
// memo destinations — as many as a monolithic run of the same classes.
func TestModularRunHoldsOneShared(t *testing.T) {
	if testing.Short() {
		t.Skip("two gen.Medium sweeps under -short")
	}
	wa, err := gen.Generate(gen.Medium())
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	plan := modularPlan(t, wa, k)
	if plan.Model, err = core.Assemble(wa.Net, wa.Snap, behavior.TrueProfiles()); err != nil {
		t.Fatal(err)
	}
	plan.ModelHash = ModelHash(wa.Net, wa.Snap)
	run := func(p *Plan) (*core.Shared, int64) {
		t.Helper()
		pool := &spyPool{n: 2}
		before := igp.Propagations()
		res, err := Run(p, pool)
		if err != nil {
			t.Fatal(err)
		}
		if (res.ModularPasses > 0) != (len(p.Regions) > 0) {
			t.Fatalf("%d modular passes over %d regions", res.ModularPasses, len(p.Regions))
		}
		n := igp.Propagations() - before
		if len(pool.shareds) != 2 || pool.shareds[0] == nil || pool.shareds[1] != pool.shareds[0] {
			t.Fatalf("the run's %d executors hold %v, want one Shared", len(pool.shareds), pool.shareds)
		}
		sh := pool.shareds[0]
		if sh.Opts.K != k || res.IGP != sh.IGPMemo() {
			t.Fatalf("the run's Shared is for K=%d and its memo is the Result's: %v; want K=%d and true", sh.Opts.K, res.IGP == sh.IGPMemo(), k)
		}
		return sh, n
	}
	sh, n := run(plan)
	if dsts := sh.IGPMemo().NumDestinations(); int(n) != dsts {
		t.Fatalf("the modular run propagated %d destinations; its Shared's memo holds %d", n, dsts)
	}
	mono := *plan
	mono.Regions = nil
	if _, nm := run(&mono); nm != n {
		t.Fatalf("the modular run propagated %d destinations, the monolithic one %d", n, nm)
	}
}
