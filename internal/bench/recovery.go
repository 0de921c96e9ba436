package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
)

// RecoveryMetrics are the raw numbers behind the crash-recovery
// experiment, recorded as the recovery_cold / recovery_resumed metric
// groups of BENCH_PR6.json.
type RecoveryMetrics struct {
	ColdSeconds    float64
	ResumedSeconds float64
	SavedFraction  float64
	Classes        int
	KillPoint      int
	Replayed       int
	Redispatched   int
	Workers        int
	K              int
}

// RecoverySweep measures coordinator crash recovery on one generated
// WAN: a cold classed sweep over an in-process worker pool is timed
// against a journaled session that is killed (deterministically, via
// Session.KillAfter) once half the classes are durable and then resumed
// from the journal. The resumed timing covers Resume + journal replay +
// re-dispatch of the unfinished half — what an operator restarting a
// crashed coordinator pays — and the stitched report is checked
// byte-for-byte against the cold one before any number is reported.
// iters repeats each measurement with a fresh journal and keeps the
// fastest run (min-of-N); 1 is the CI smoke setting.
func RecoverySweep(params gen.Params, k, workers, iters int) (Table, *RecoveryMetrics, error) {
	if iters <= 0 {
		iters = 1
	}
	if workers <= 0 {
		workers = 2
	}
	w, err := gen.Generate(params)
	if err != nil {
		return Table{}, nil, err
	}
	model, err := core.Assemble(w.Net, w.Snap, behavior.TrueProfiles())
	if err != nil {
		return Table{}, nil, err
	}
	var classes [][]string
	for _, c := range model.Classes() {
		classes = append(classes, c.MemberStrings())
	}
	if len(classes) < 2 {
		return Table{}, nil, fmt.Errorf("recovery experiment needs >=2 classes, got %d", len(classes))
	}

	addrs, stop, err := startPool(w, workers)
	if err != nil {
		return Table{}, nil, err
	}
	defer stop()
	hash := dist.ModelHash(w.Net, w.Snap)
	coord := &dist.Coordinator{Addrs: addrs}

	var cold *dist.Result
	coldWall := time.Duration(0)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		res, err := dist.Run(journaled(classes, k, hash, nil), coord)
		if err != nil {
			return Table{}, nil, err
		}
		if wall := time.Since(t0); i == 0 || wall < coldWall {
			coldWall, cold = wall, res
		}
	}
	coldBytes, err := canonicalBytes(cold)
	if err != nil {
		return Table{}, nil, err
	}

	dir, err := os.MkdirTemp("", "hoyan-recovery-")
	if err != nil {
		return Table{}, nil, err
	}
	defer os.RemoveAll(dir)

	kill := len(classes) / 2
	var resumed *dist.Result
	resumedWall := time.Duration(0)
	for i := 0; i < iters; i++ {
		journal := filepath.Join(dir, fmt.Sprintf("recovery-%d.journal", i))
		s, err := dist.NewSession(journal, "bench-recovery", k, "", hash, classes)
		if err != nil {
			return Table{}, nil, err
		}
		s.KillAfter = kill
		_, runErr := dist.Run(journaled(classes, k, hash, s), coord)
		s.Close()
		if !errors.Is(runErr, dist.ErrSessionKilled) {
			return Table{}, nil, fmt.Errorf("expected injected coordinator death, got %v", runErr)
		}

		t0 := time.Now()
		s2, err := dist.Resume(journal)
		if err != nil {
			return Table{}, nil, err
		}
		res, err := dist.Run(journaled(classes, k, hash, s2), coord)
		s2.Close()
		if err != nil {
			return Table{}, nil, err
		}
		if wall := time.Since(t0); i == 0 || wall < resumedWall {
			resumedWall, resumed = wall, res
		}
	}
	got, err := canonicalBytes(resumed)
	if err != nil {
		return Table{}, nil, err
	}
	if string(got) != string(coldBytes) {
		return Table{}, nil, fmt.Errorf("resumed sweep is not byte-identical to the cold one — recovery numbers would be meaningless")
	}

	m := &RecoveryMetrics{
		ColdSeconds:    coldWall.Seconds(),
		ResumedSeconds: resumedWall.Seconds(),
		SavedFraction:  1 - resumedWall.Seconds()/coldWall.Seconds(),
		Classes:        len(classes),
		KillPoint:      kill,
		Replayed:       resumed.Resumed,
		Redispatched:   resumed.Classes,
		Workers:        workers,
		K:              k,
	}

	t := Table{
		Title:  fmt.Sprintf("Crash recovery — coordinator killed at class %d/%d (%d routers, k=%d, %d workers)", kill, len(classes), w.Net.NumNodes(), k, workers),
		Header: []string{"mode", "wall", "simulated", "replayed"},
		Rows: [][]string{
			{"cold sweep", fmtDur(coldWall), fmt.Sprint(len(classes)), "0"},
			{"resume after crash", fmtDur(resumedWall), fmt.Sprint(m.Redispatched), fmt.Sprint(m.Replayed)},
		},
		Notes: []string{
			fmt.Sprintf("resumed run re-simulated only the unfinished %d classes (%.0f%% of cold wall-clock saved, min of %d runs)",
				m.Redispatched, 100*m.SavedFraction, iters),
			"resumed report verified byte-identical to the cold sweep",
		},
	}
	return t, m, nil
}

// journaled is the monolithic plan of the class partition of the model
// with the given hash, journaled to s (nil = not journaled).
func journaled(classes [][]string, k int, hash string, s *dist.Session) *dist.Plan {
	p := dist.ClassPlan(classes, k)
	p.ModelHash, p.Journal = hash, s
	return p
}

// startPool spins up n in-process dist workers for the WAN and returns
// their addresses plus a shutdown func.
func startPool(w *gen.WAN, n int) (addrs []string, stop func(), err error) {
	var stops []func()
	stop = func() {
		for _, s := range stops {
			s()
		}
	}
	for i := 0; i < n; i++ {
		wk := dist.NewWorker(w.Net, w.Snap)
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			stop()
			return nil, nil, lerr
		}
		done := make(chan error, 1)
		go func() { done <- wk.Serve(ln) }()
		addrs = append(addrs, ln.Addr().String())
		stops = append(stops, func() {
			wk.Close()
			<-done
		})
	}
	return addrs, stop, nil
}

// canonicalBytes serializes a result's reports deterministically so two
// runs can be compared byte for byte.
func canonicalBytes(res *dist.Result) ([]byte, error) {
	prefixes := make([]string, 0, len(res.ByPrefix))
	for p := range res.ByPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	type entry struct {
		Prefix    string               `json:"prefix"`
		Summaries []dist.RouterSummary `json:"summaries"`
	}
	var out []entry
	for _, p := range prefixes {
		out = append(out, entry{Prefix: p, Summaries: res.ByPrefix[p]})
	}
	return json.Marshal(out)
}
