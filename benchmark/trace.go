package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hoyan"
	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/httpapi"
	"hoyan/internal/qc"
	"hoyan/internal/topo"
	"hoyan/internal/vet"
)

// span is one timed call into a layer. Spans of one pass share its
// number; Parent indexes the span that made the call (-1 at the top).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
}

// tracer records spans from the benchmark's own goroutine, around calls
// into the program; it stays in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	pass  int
}

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Pass: t.pass, Start: time.Since(t.t0).Nanoseconds()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
	return time.Duration(s.End - s.Start)
}

// do times f as one span.
func (t *tracer) do(name string, f func()) time.Duration {
	id := t.begin(name)
	f()
	return t.end(id)
}

// selfRow is one line of the self-time table: a span name's total time
// and the part of it not covered by child spans.
type selfRow struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

func (t *tracer) selfTimes() []selfRow {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfRow{}
	var rows []*selfRow
	for i, s := range t.spans {
		row := byName[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			byName[s.Name] = row
			rows = append(rows, row)
		}
		row.Calls++
		row.Total += float64(s.End-s.Start) / 1e9
		row.Self += float64(s.End-s.Start-child[i]) / 1e9
	}
	out := make([]selfRow, len(rows))
	for i, row := range rows {
		out[i] = *row
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// evalSink keeps the compiler from dropping the measured Eval calls.
var evalSink bool

// traceLayers is the traced half of a pass: it replays the cold sweep on
// one goroutine from the same public functions the sweep itself calls,
// with a span around each call into a layer and the counts read at the
// same boundaries, then times the pieces no end-to-end interval shows
// on its own (capture, store, compile, evaluation, planning).
func (r *run) traceLayers(tnet *topo.Network, snap config.Snapshot, store *hoyan.ResultStore, sweepW2 time.Duration) error {
	k, tr, rec := r.cfg.wl.k, r.tr, r.rec
	tr.pass = r.passes
	copts := core.DefaultOptions()
	copts.K = k

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var (
		err                     error
		model                   *core.Model
		classes                 []core.PrefixClass
		diags                   []vet.Diagnostic
		shared                  *core.Shared
		sim                     *core.Simulator
		stats                   core.Stats
		rep                     hoyan.SweepReport
		reset, propagate, solve time.Duration
		solveCalls, nodes       int
	)
	root := tr.begin("replay")
	load := tr.do("config.load", func() { _, _, err = gen.LoadDir(r.in.dir) })
	if err != nil {
		return err
	}
	assemble := tr.do("core.assemble", func() { model, err = core.Assemble(tnet, snap, behavior.TrueProfiles()) })
	if err != nil {
		return err
	}
	classify := tr.do("core.classes", func() { classes = model.Classes() })
	vetRun := tr.do("vet.run", func() { diags, err = vet.RunBudget(model, vet.Analyzers(), k) })
	if err != nil {
		return err
	}
	memo := tr.do("igp.memo", func() { shared = core.NewShared(model, copts) })
	tr.do("core.simulator", func() { sim = shared.NewSimulator() })
	for ci, cls := range classes {
		id := tr.begin("hoyan.class")
		if ci > 0 {
			reset += tr.do("core.reset", sim.Reset)
		}
		var res *core.Result
		propagate += tr.do("core.propagate", func() { res, err = sim.Run(cls.Rep) })
		if err != nil {
			return err
		}
		sum := hoyan.PrefixSummary{MinFailures: -1}
		var viols []hoyan.Violation
		solve += tr.do("logic.solve", func() {
			pt := core.AnyRouteTo(cls.Rep)
			for _, node := range model.Net.Nodes() {
				if model.Configs[node.ID].BGP == nil {
					continue
				}
				if !res.Reachable(node.ID, pt) {
					viols = append(viols, hoyan.Violation{Kind: "reachability", Router: node.Name, Details: "no route with all links up"})
					continue
				}
				min, _ := res.MinFailuresToLose(node.ID, pt)
				solveCalls++
				if min <= k && (sum.MinFailures == -1 || min < sum.MinFailures) {
					sum.MinFailures, sum.WeakestRouter = min, node.Name
				}
			}
		})
		nodes += res.Sim.F.NumNodes()
		st := res.Stats
		stats.Steps += st.Steps
		stats.Branches += st.Branches
		stats.DroppedPolicy += st.DroppedPolicy
		stats.DroppedOverK += st.DroppedOverK
		stats.DroppedImpossible += st.DroppedImpossible
		stats.Delivered += st.Delivered
		stats.FrozenSessions += st.FrozenSessions
		stats.MaxCondLen = max(stats.MaxCondLen, st.MaxCondLen)
		for _, p := range cls.Members {
			sum.Prefix = p.String()
			rep.Prefixes = append(rep.Prefixes, sum)
			for _, v := range viols {
				v.Prefix = p.String()
				rep.Violations = append(rep.Violations, v)
			}
		}
		tr.end(id)
	}
	replay := tr.end(root)
	runtime.ReadMemStats(&m1)
	r.checkDigest("traced replay", digestReport(&rep), len(rep.Prefixes))

	files, bytes, err := dirStats(r.in.dir)
	if err != nil {
		return err
	}
	hits, misses := shared.MemoHits()
	rec.seconds("config.load_s", load)
	rec.count("config.files", files)
	rec.count("config.bytes", int(bytes))
	rec.seconds("core.assemble_s", assemble)
	rec.seconds("core.classes_s", classify)
	rec.count("core.classes", len(classes))
	rec.count("core.prefixes", len(rep.Prefixes))
	rec.count("core.routers", model.Net.NumNodes())
	rec.seconds("vet.run_s", vetRun)
	rec.count("vet.diagnostics", len(diags))
	rec.seconds("igp.memo_s", memo)
	rec.seconds("core.propagate_s", propagate)
	rec.seconds("core.reset_s", reset)
	rec.count("core.steps", stats.Steps)
	rec.count("core.branches", stats.Branches)
	rec.count("core.dropped_policy", stats.DroppedPolicy)
	rec.count("core.dropped_over_k", stats.DroppedOverK)
	rec.count("core.dropped_impossible", stats.DroppedImpossible)
	rec.count("core.delivered", stats.Delivered)
	rec.count("core.max_cond_len", stats.MaxCondLen)
	rec.count("core.frozen_sessions", stats.FrozenSessions)
	rec.count("core.xmemo_hits", int(hits))
	rec.count("core.xmemo_misses", int(misses))
	rec.seconds("logic.solve_s", solve)
	rec.count("logic.solve_calls", solveCalls)
	rec.count("logic.factory_nodes", nodes)
	rec.sample("runtime.alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	rec.sample("runtime.mallocs", "allocs", float64(m1.Mallocs-m0.Mallocs))
	rec.sample("runtime.num_gc", "cycles", float64(m1.NumGC-m0.NumGC))
	rec.sample("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)

	// The same sweep untraced on one worker, and again with capture.
	n := hoyan.NetworkFrom(tnet, snap)
	r.boundary()
	t0 := time.Now()
	if _, err := n.Sweep(hoyan.Options{K: k}, 1); err != nil {
		return err
	}
	sweepW1 := time.Since(t0)
	runtime.GC()
	t0 = time.Now()
	if _, _, err := n.SweepBaseline(hoyan.Options{K: k}, 1); err != nil {
		return err
	}
	baselineW1 := time.Since(t0)
	swept := replay - load - vetRun // what Network.Sweep itself covers
	rec.seconds("hoyan.sweep_w1_s", sweepW1)
	rec.seconds("hoyan.capture_s", baselineW1-sweepW1)
	rec.sample("hoyan.parallel_efficiency", "ratio", baselineW1.Seconds()/(sweepWorkers*sweepW2.Seconds()))
	rec.seconds("hoyan.sched_self_s", sweepW1-(assemble+classify+memo+reset+propagate+solve))
	rec.sample("trace.overhead_ratio", "ratio", swept.Seconds()/sweepW1.Seconds())
	// Where the traced sweep spent its time: the property a workload is
	// chosen for, measured on every traced pass.
	rec.sample("igp.memo_share", "ratio", memo.Seconds()/swept.Seconds())
	rec.sample("core.propagate_share", "ratio", propagate.Seconds()/swept.Seconds())
	rec.sample("logic.solve_share", "ratio", solve.Seconds()/swept.Seconds())

	// Store and compile.
	r.boundary()
	path := filepath.Join(r.work, "trace-store.json")
	rec.seconds("hoyan.store_save_s", tr.do("hoyan.store_save", func() { err = store.Save(path) }))
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	rec.sample("hoyan.store_bytes", "B", float64(info.Size())) // simulation times are stored, so the size wobbles
	var loaded *hoyan.ResultStore
	rec.seconds("hoyan.store_load_s", tr.do("hoyan.store_load", func() { loaded, err = hoyan.LoadResultStore(path) }))
	if err != nil {
		return err
	}
	var compiled *qc.Snapshot
	compile := tr.do("qc.compile", func() { compiled, err = qc.CompileStore(loaded) })
	if err != nil {
		return err
	}
	rec.seconds("qc.compile_s", compile)
	rec.sample("qc.compile_per_sweep", "ratio", compile.Seconds()/sweepW2.Seconds())
	rec.count("qc.programs", compiled.Stats.Programs)
	rec.count("qc.instrs_total", compiled.Stats.Instrs)
	rec.count("qc.decisions_total", compiled.Stats.Decisions)
	evalBench(compiled, rec)
	svc, err := httpapi.New(tnet, snap, k)
	if err != nil {
		return err
	}
	rec.seconds("httpapi.publish_s", tr.do("httpapi.publish", func() { _, err = svc.PublishStore(store) }))
	if err != nil {
		return err
	}

	// One edit at the library level, where diff and plan can be told
	// apart. Always the series' first edit, so the counts repeat.
	r.boundary()
	e := r.in.edits[0]
	edited, err := snap.Apply([]config.Update{{Device: e.Device, Lines: append(append([]string(nil), e.Prime...), e.Apply...)}})
	if err != nil {
		return err
	}
	editedModel, err := core.Assemble(tnet, edited, behavior.TrueProfiles())
	if err != nil {
		return err
	}
	ne := hoyan.NetworkFrom(tnet, edited)
	var delta *core.ModelDelta
	var plan *hoyan.IncrementalPlan
	id := tr.begin("edit")
	rec.seconds("core.diff_s", tr.do("core.diff", func() { delta = core.Diff(model, editedModel) }))
	rec.seconds("hoyan.plan_s", tr.do("hoyan.plan", func() { plan, err = ne.PlanIncremental(hoyan.Options{K: k}, store) }))
	if err != nil {
		return err
	}
	runtime.GC()
	rec.seconds("hoyan.resweep_s", tr.do("hoyan.resweep", func() {
		_, _, err = ne.SweepBaseline(hoyan.Options{K: k, Baseline: store}, sweepWorkers)
	}))
	tr.end(id)
	if err != nil {
		return err
	}
	rec.count("core.delta_items", len(delta.Items))
	rec.count("hoyan.classes_dirty", len(plan.DirtyJobs))
	rec.count("hoyan.classes_replayed", plan.ReplayedClasses)
	return nil
}

// evalBench times one compiled condition evaluation, the inner loop of a
// reach query, on the median-size program and on the largest.
func evalBench(snap *qc.Snapshot, rec *recorder) {
	var progs []*qc.Program
	for _, cls := range snap.Classes {
		progs = append(progs, cls.Progs...)
	}
	sort.SliceStable(progs, func(i, j int) bool { return progs[i].NumInstrs() < progs[j].NumInstrs() })
	fs, sc := snap.NewFailureSet(), snap.NewScratch()
	bench := func(p *qc.Program) (ns, allocs float64) {
		fs.Reset()
		if vs := p.Vars(); len(vs) > 0 {
			fs.Add(vs[len(vs)/2])
		}
		evalSink = p.Eval(fs, sc)
		const iters = 200000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			evalSink = p.Eval(fs, sc)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		return float64(d.Nanoseconds()) / iters, float64(m1.Mallocs-m0.Mallocs) / iters
	}
	ns, allocs := bench(progs[len(progs)/2])
	worst, _ := bench(progs[len(progs)-1])
	rec.sample("qc.eval_ns", "ns", ns)
	rec.sample("qc.eval_worst_ns", "ns", worst)
	rec.sample("qc.eval_allocs", "allocs", allocs)
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Passes   int       `json:"passes"`
	Self     []selfRow `json:"self_time"`
	Spans    []span    `json:"spans"`
}

// writeTrace writes the spans out with their self-time table.
func (r *run) writeTrace() (string, []selfRow, error) {
	self := r.tr.selfTimes()
	path := filepath.Join(r.cfg.out, r.cfg.wl.name+".trace.json")
	data, err := json.Marshal(traceFile{Workload: r.cfg.wl.name, Seed: r.cfg.seed, Passes: r.passes, Self: self, Spans: r.tr.spans})
	if err != nil {
		return "", nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", nil, fmt.Errorf("write trace: %w", err)
	}
	return path, self, nil
}
