package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"hoyan/internal/faultnet"
	"hoyan/internal/gen"
)

// chaosSeed returns the matrix seed: CHAOS_SEED overrides for
// reproduction; the value is printed on failure so a red CI run names
// the exact world it saw.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", v, err)
		}
		return n
	}
	return 1
}

// TestChaosMatrixCoordinatorKillResume crosses faultnet modes with
// coordinator kill points: the coordinator is killed mid-sweep after a
// seeded number of journaled completions, resumed from the journal, and
// the stitched result must be byte-identical to an uninterrupted run
// with no class dispatched twice.
func TestChaosMatrixCoordinatorKillResume(t *testing.T) {
	seed := chaosSeed(t)
	params := gen.Small()
	params.Seed = seed
	w, err := gen.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	classes := modelClasses(t, w)
	if len(classes) < 3 {
		t.Fatalf("chaos matrix needs >=3 classes, got %d (seed %d)", len(classes), seed)
	}

	// The uninterrupted truth, swept over a healthy pool, with every
	// class's record.
	cleanAddrs, cleanStop := startWorkers(t, w, 2)
	truth := ClassPlan(classes, 2)
	truth.Capture = true
	cold, err := Run(truth, &Coordinator{Addrs: cleanAddrs, Opts: fastOpts()})
	cleanStop()
	if err != nil {
		t.Fatal(err)
	}
	coldBytes := canonicalReport(t, cold)
	coldRecords, err := json.Marshal(cold.Records)
	if err != nil {
		t.Fatal(err)
	}

	type mode struct {
		name string
		cfg  faultnet.Config
		opts func() Options
		// plan builds the session's plan; nil means the monolithic class
		// plan.
		plan func(*testing.T) *Plan
	}
	modes := []mode{
		{name: "clean", cfg: faultnet.Config{Seed: seed}, opts: fastOpts},
		{name: "latency", cfg: faultnet.Config{Seed: seed, Latency: 2 * time.Millisecond}, opts: fastOpts},
		{name: "corruption", cfg: faultnet.Config{Seed: seed, CorruptEvery: 977}, opts: fastOpts},
		{name: "blackhole", cfg: faultnet.Config{Seed: seed, BlackholeReads: true}, opts: func() Options {
			o := fastOpts()
			o.RequestTimeout = time.Second
			o.HedgeAfter = 50 * time.Millisecond
			return o
		}},
	}
	killPoints := []int{1, len(classes) / 2, len(classes) - 1}
	type cell struct {
		mode
		kp int
	}
	var cells []cell
	for _, m := range modes {
		for _, kp := range killPoints {
			cells = append(cells, cell{m, kp})
		}
	}
	// One modular row: the same journal settles units that took several
	// region passes each, with no code written for the combination.
	cells = append(cells, cell{mode{name: "modular", cfg: faultnet.Config{Seed: seed}, opts: fastOpts,
		plan: func(t *testing.T) *Plan { return modularPlan(t, w, 2) }}, len(classes) / 2})
	// One capture row: the records of the classes journaled before the
	// kill come back from the journal, the rest from the resumed passes,
	// and together they are the uninterrupted run's, byte for byte.
	cells = append(cells, cell{mode{name: "capture", cfg: faultnet.Config{Seed: seed}, opts: fastOpts,
		plan: func(*testing.T) *Plan {
			p := ClassPlan(classes, 2)
			p.Capture = true
			return p
		}}, len(classes) / 2})

	for _, c := range cells {
		kp := c.kp
		if kp < 1 || kp >= len(classes) {
			continue
		}
		t.Run(fmt.Sprintf("%s/kill%d", c.name, kp), func(t *testing.T) {
			// One faulty worker, one healthy one: every mode can
			// finish, but the faulty path is exercised throughout.
			faultAddr, faultStop := startFaultWorker(t, w, c.cfg)
			defer faultStop()
			cleanAddr, cleanStop := startWorkers(t, w, 1)
			defer cleanStop()
			coord := &Coordinator{Addrs: []string{faultAddr, cleanAddr[0]}, Opts: c.opts()}
			plan := func(s *Session) *Plan {
				if c.plan == nil {
					return classPlan(classes, 2, s)
				}
				p := c.plan(t)
				p.Journal = s
				return p
			}

			journal := filepath.Join(t.TempDir(), "chaos.journal")
			s1, err := OpenSession(journal)
			if err != nil {
				t.Fatal(err)
			}
			s1.KillAfter = kp
			_, runErr := Run(plan(s1), coord)
			s1.Close()
			if !errors.Is(runErr, ErrSessionKilled) {
				t.Fatalf("seed %d: expected injected coordinator death, got %v", seed, runErr)
			}

			s2, err := OpenSession(journal)
			if err != nil {
				t.Fatalf("seed %d: resume: %v", seed, err)
			}
			defer s2.Close()
			if err := s2.header.admits(sessionHeader{K: 2, Classes: classes}); err != nil {
				t.Fatalf("seed %d: the journal's header is not the plan's: %v", seed, err)
			}
			if s2.Completed() != kp {
				t.Fatalf("seed %d: journal holds %d completions, want exactly %d (fsync-at-class granularity)",
					seed, s2.Completed(), kp)
			}
			res, err := Run(plan(s2), coord)
			if err != nil {
				t.Fatalf("seed %d: resumed run: %v", seed, err)
			}
			// No duplicate dispatch: the resumed run simulates only
			// what the journal does not cover.
			if res.Classes != len(classes)-kp {
				t.Fatalf("seed %d: resumed run dispatched %d classes, want %d (journaled classes must not re-dispatch)",
					seed, res.Classes, len(classes)-kp)
			}
			if res.Resumed != kp {
				t.Fatalf("seed %d: replayed %d classes from the journal, want %d", seed, res.Resumed, kp)
			}
			if s2.Completed() != len(classes) {
				t.Fatalf("seed %d: journal ends with %d completions, want %d", seed, s2.Completed(), len(classes))
			}
			if c.name == "modular" && res.ModularPasses == 0 {
				t.Fatalf("seed %d: the modular row dispatched no region pass", seed)
			}
			if got := canonicalReport(t, res); string(got) != string(coldBytes) {
				t.Fatalf("seed %d: resumed sweep is not byte-identical to the uninterrupted run", seed)
			}
			if c.name == "capture" {
				if got, err := json.Marshal(res.Records); err != nil || string(got) != string(coldRecords) {
					t.Fatalf("seed %d: resumed records (%d) are not byte-identical to the uninterrupted run's (%d): %v",
						seed, len(res.Records), len(cold.Records), err)
				}
			}
		})
	}
}

// startSharedPool spins up n workers that each hold both WANs: a's model
// is the default, b's is registered under its hash. maxShared caps each
// worker's Shared LRU.
func startSharedPool(t *testing.T, n, maxShared int, a, b *gen.WAN) (addrs []string, workers []*Worker, stop func()) {
	t.Helper()
	var stops []func()
	for i := 0; i < n; i++ {
		wk := NewWorker(a.Net, a.Snap)
		wk.MaxShared = maxShared
		wk.AddModel(b.Net, b.Snap)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- wk.Serve(ln) }()
		addrs = append(addrs, ln.Addr().String())
		workers = append(workers, wk)
		stops = append(stops, func() {
			wk.Close()
			<-done
		})
	}
	return addrs, workers, func() {
		for _, s := range stops {
			s()
		}
	}
}

// twoWANs generates two genuinely different networks (different seed and
// policy shape) for multi-session tests.
func twoWANs(t *testing.T) (*gen.WAN, *gen.WAN) {
	t.Helper()
	a, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	pb := gen.Small()
	pb.Seed = 7
	pb.PolicyDiversity = 2
	b, err := gen.Generate(pb)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// Two interleaved full sweeps — different models, one worker pool — must
// be deterministic and free of cross-talk: each concurrent result is
// byte-identical to the same model swept alone.
func TestInterleavedSessionsSharedPoolNoCrosstalk(t *testing.T) {
	wa, wb := twoWANs(t)
	hashA, hashB := ModelHash(wa.Net, wa.Snap), ModelHash(wb.Net, wb.Snap)
	if hashA == hashB {
		t.Fatal("test WANs collapsed to one model hash")
	}
	classesA, classesB := modelClasses(t, wa), modelClasses(t, wb)
	addrs, _, stop := startSharedPool(t, 2, 0, wa, wb)
	defer stop()

	run := func(hash string, classes [][]string) (*Result, error) {
		plan := ClassPlan(classes, 2)
		plan.ModelHash = hash
		return Run(plan, &Coordinator{Addrs: addrs, Opts: fastOpts()})
	}

	// Each model swept alone is the truth.
	soloA, err := run(hashA, classesA)
	if err != nil {
		t.Fatal(err)
	}
	soloB, err := run(hashB, classesB)
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB := canonicalReport(t, soloA), canonicalReport(t, soloB)

	// Interleave the two full sweeps over the same pool, twice, pinning
	// determinism run to run.
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		var resA, resB *Result
		var errA, errB error
		wg.Add(2)
		go func() { defer wg.Done(); resA, errA = run(hashA, classesA) }()
		go func() { defer wg.Done(); resB, errB = run(hashB, classesB) }()
		wg.Wait()
		if errA != nil || errB != nil {
			t.Fatalf("round %d: interleaved sweeps failed: %v / %v", round, errA, errB)
		}
		if got := canonicalReport(t, resA); string(got) != string(wantA) {
			t.Fatalf("round %d: session A diverged from its solo sweep (cross-talk?)", round)
		}
		if got := canonicalReport(t, resB); string(got) != string(wantB) {
			t.Fatalf("round %d: session B diverged from its solo sweep (cross-talk?)", round)
		}
	}
}

// A model hash the worker does not hold is a loud per-request error,
// never a silent fallback to some other session's model.
func TestUnknownModelHashIsLoud(t *testing.T) {
	wa, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	addrs, stop := startWorkers(t, wa, 1)
	defer stop()
	plan := ClassPlan([][]string{{"10.0.0.0/24"}}, 2)
	plan.ModelHash = "deadbeefdeadbeef"
	if _, err := Run(plan, &Coordinator{Addrs: addrs, Opts: fastOpts()}); err == nil {
		t.Fatal("unknown model hash must fail the request")
	}
}

// With the LRU capped below the working set, alternating sessions force
// evictions — and the reports must stay correct anyway (an evicted
// Shared is re-assembled, never reused across models).
func TestWorkerSharedLRUEvicts(t *testing.T) {
	wa, wb := twoWANs(t)
	hashB := ModelHash(wb.Net, wb.Snap)
	classesA, classesB := modelClasses(t, wa), modelClasses(t, wb)
	addrs, workers, stop := startSharedPool(t, 1, 1, wa, wb)
	defer stop()

	run := func(hash string, classes [][]string) *Result {
		plan := ClassPlan(classes, 2)
		plan.ModelHash = hash
		res, err := Run(plan, &Coordinator{Addrs: addrs, Opts: fastOpts()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	firstA := canonicalReport(t, run("", classesA))
	firstB := canonicalReport(t, run(hashB, classesB))
	// Alternate again: each switch evicts the other model's Shared.
	if got := canonicalReport(t, run("", classesA)); string(got) != string(firstA) {
		t.Fatal("model A diverged after eviction and re-assembly")
	}
	if got := canonicalReport(t, run(hashB, classesB)); string(got) != string(firstB) {
		t.Fatal("model B diverged after eviction and re-assembly")
	}
	if ev := workers[0].Evictions(); ev < 2 {
		t.Fatalf("MaxShared=1 with two alternating models must evict (got %d evictions)", ev)
	}
}
