// Command hoyan is the CLI front end of the verifier: it loads a network
// directory (topology.txt + per-router .cfg files, as written by
// hoyangen) and answers the verification questions of §5 — route and
// packet reachability under failures, role equivalence, racing — plus the
// full daily audit of Figure 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"hoyan"
	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
	"hoyan/internal/topo"
	"hoyan/internal/vet"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: hoyan <command> [flags]

commands:
  route   -dir DIR -prefix P -router R [-k N]   route reachability under failures
  packet  -dir DIR -prefix P -src R [-k N]      packet reachability to the gateway
  equiv   -dir DIR -a R1 -b R2                  role equivalence of two routers
  racing  -dir DIR -prefix P                    update-racing ambiguity
  audit   -dir DIR [-k N]                       full audit (conflicts, groups, racing)
  update  -dir DIR -device R -lines "l1;l2"     what-if check of an incremental update
  check   -dir DIR -intents FILE [-k N]         verify an operator intent file
  vet     -dir DIR [-json] [-only a,b] [-k N]   static configuration analysis: find
                                                config defects and predict modular
                                                refusals without simulating; exit 1
                                                on findings (info advisories never
                                                fail a run), 2 on usage errors
  sweep   -dir DIR [-k N]                       whole-network sweep: one plan, run
                                                on in-process executors or remote
                                                workers; every flag below composes
                                                with every other
          [-threads N]                          in-process executors (0 = GOMAXPROCS)
          [-workers a:p,b:p]                    run the passes on remote hoyanworkers
                                                instead
          [-retries N] [-req-timeout D] [-dial-timeout D]
          [-hedge-after D] [-partial]           fault-tolerance knobs of -workers
          [-modular]                            per-region passes stitched through
                                                interface summaries; classes a cut
                                                cannot express fall back, loudly
          [-baseline FILE]                      incremental re-verification: diff
                                                against a saved baseline, simulate
                                                only invalidated classes, replay
                                                the rest
          [-audit-sample F]                     re-simulate a fraction of replicated
                                                members and replayed classes and
                                                fail on divergence
          [-journal FILE]                       crash-safe sweep session: journal
                                                class completions to FILE; when
                                                FILE exists (a killed sweep's),
                                                settle its classes and dispatch
                                                only the remainder
          [-save-baseline FILE]                 also capture a baseline store
                                                (reports, taints, portable
                                                conditions); a record is one
                                                whole-WAN pass, so refused with
                                                -modular

exit codes:
  0  verified clean
  1  violations found, or the run errored
  2  usage error
  3  partial result: -partial was set and some prefixes never completed
     (the sweep is incomplete, whatever it did complete is reported)

every command also accepts -cpuprofile FILE and -memprofile FILE to
write pprof profiles of the run.
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dir := fs.String("dir", "", "network directory (topology.txt + *.cfg)")
	prefix := fs.String("prefix", "", "prefix in CIDR form")
	router := fs.String("router", "", "target router")
	src := fs.String("src", "", "source router")
	a := fs.String("a", "", "first router")
	b := fs.String("b", "", "second router")
	k := fs.Int("k", 3, "failure budget")
	device := fs.String("device", "", "device to update")
	lines := fs.String("lines", "", "update command lines, ';'-separated")
	workers := fs.String("workers", "", "comma-separated worker addresses")
	intents := fs.String("intents", "", "intent file path")
	dopts := dist.DefaultOptions()
	retries := fs.Int("retries", dopts.MaxAttempts, "sweep: per-pass attempts before giving up")
	reqTimeout := fs.Duration("req-timeout", dopts.RequestTimeout, "sweep: per-request deadline")
	dialTimeout := fs.Duration("dial-timeout", dopts.DialTimeout, "sweep: per-dial deadline")
	hedgeAfter := fs.Duration("hedge-after", 0, "sweep: re-dispatch stragglers to idle workers after this long (0 = off)")
	partial := fs.Bool("partial", false, "sweep: report failed prefixes instead of aborting the run")
	modular := fs.Bool("modular", false, "sweep: per-region passes stitched through interface summaries, O(WAN/regions) working set (falls back to monolithic, loudly, when no usable cut exists)")
	baseline := fs.String("baseline", "", "sweep: baseline result store for incremental re-verification")
	saveBaseline := fs.String("save-baseline", "", "sweep: also capture a baseline result store and write it here")
	auditSample := fs.Float64("audit-sample", 0, "sweep: fraction of replicated members and cached replays to re-simulate and check")
	threads := fs.Int("threads", 0, "sweep: in-process executors when no -workers given (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "vet: emit machine-readable diagnostics instead of text")
	only := fs.String("only", "", "vet: comma-separated analyzer names to run (default: all)")
	journal := fs.String("journal", "", "sweep: journal class completions to this file (crash-safe session); an existing journal resumes")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(os.Args[2:])

	startProfiles(*cpuprofile, *memprofile)
	if *dir == "" {
		fail("missing -dir")
	}
	net, snap, err := gen.LoadDir(*dir)
	if err != nil {
		fail(err.Error())
	}
	switch cmd {
	case "route":
		need(*prefix, "-prefix")
		need(*router, "-router")
		rep, err := verifier(net, snap, *k).RouteReach(*prefix, *router)
		if err != nil {
			fail(err.Error())
		}
		fmt.Printf("route %s @ %s: reachable=%v\n", *prefix, *router, rep.Reachable)
		if rep.Tolerant {
			fmt.Printf("  survives any %d link failures (formula len %d)\n", *k, rep.FormulaLen)
		} else {
			fmt.Printf("  breaks with %d failures: %v\n", rep.MinFailures, rep.Witness)
		}
	case "packet":
		need(*prefix, "-prefix")
		need(*src, "-src")
		rep, err := verifier(net, snap, *k).PacketReach(*prefix, *src)
		if err != nil {
			fail(err.Error())
		}
		min := fmt.Sprint(rep.MinFailures)
		if rep.Tolerant {
			min = fmt.Sprintf(">%d", *k)
		}
		fmt.Printf("packet %s -> %s: reachable=%v min-failures=%s\n", *src, *prefix, rep.Reachable, min)
	case "equiv":
		need(*a, "-a")
		need(*b, "-b")
		rep, err := verifier(net, snap, *k).RoleEquivalence(*a, *b)
		if err != nil {
			fail(err.Error())
		}
		for _, d := range rep.Differences {
			fmt.Printf("  %s\n", d)
		}
		if rep.Equivalent {
			fmt.Printf("%s and %s are equivalent roles\n", *a, *b)
		} else {
			fmt.Printf("%d divergences\n", len(rep.Differences))
			exit(1)
		}
	case "racing":
		need(*prefix, "-prefix")
		rep, err := verifier(net, snap, *k).CheckRacing(*prefix)
		if err != nil {
			fail(err.Error())
		}
		if rep.Ambiguous {
			fmt.Printf("AMBIGUOUS: %d convergences; order-dependent at %d routers\n",
				rep.Convergences, len(rep.AmbiguousRouters))
			exit(1)
		}
		fmt.Println("convergence is deterministic")
	case "audit":
		viols, err := verifier(net, snap, *k).AuditAll(nil)
		if err != nil {
			fail(err.Error())
		}
		for _, vi := range viols {
			fmt.Println(vi)
		}
		fmt.Printf("audit complete: %d violations\n", len(viols))
		if len(viols) > 0 {
			exit(1)
		}
	case "update":
		need(*device, "-device")
		need(*lines, "-lines")
		up := config.Update{Device: *device, Lines: strings.Split(*lines, ";")}
		target, err := snap.Apply([]config.Update{up})
		if err != nil {
			fail(err.Error())
		}
		before, after := verifier(net, snap, *k), verifier(net, target, *k)
		changed := 0
		for _, p := range before.Prefixes() {
			for _, r := range before.Routers() {
				b, err := before.BestRoute(p, r)
				if err != nil {
					fail(err.Error())
				}
				a2, err := after.BestRoute(p, r)
				if err != nil {
					fail(err.Error())
				}
				switch {
				case b.Present != a2.Present:
					fmt.Printf("[change] %s @ %s: present %v -> %v\n", p, r, b.Present, a2.Present)
					changed++
				case b.Protocol != a2.Protocol || b.NextHop != a2.NextHop:
					fmt.Printf("[change] %s @ %s: %s via %s -> %s via %s\n", p, r, b.Protocol, b.NextHop, a2.Protocol, a2.NextHop)
					changed++
				}
			}
		}
		fmt.Printf("update would change %d (prefix, router) selections\n", changed)
	case "check":
		need(*intents, "-intents")
		raw, err := os.ReadFile(*intents)
		if err != nil {
			fail(err.Error())
		}
		set, err := hoyan.ParseIntents(string(raw))
		if err != nil {
			fail(err.Error())
		}
		viols, err := verifier(net, snap, *k).CheckIntentSet(set)
		if err != nil {
			fail(err.Error())
		}
		for _, vi := range viols {
			fmt.Println(vi)
		}
		fmt.Printf("%d intent violations\n", len(viols))
		if len(viols) > 0 {
			exit(1)
		}
	case "vet":
		m, err := core.Assemble(net, snap, behavior.TrueProfiles())
		if err != nil {
			fail(err.Error())
		}
		analyzers, err := vet.Select(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hoyan:", err)
			exit(2)
		}
		// -k mirrors the sweep the vet run front-runs: cutsound keys its
		// refusal predictions on the failure budget.
		diags, err := vet.RunBudget(m, analyzers, *k)
		if err != nil {
			fail(err.Error())
		}
		rep := vet.NewReport(diags)
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fail(err.Error())
			}
		} else {
			for _, d := range diags {
				fmt.Println(d)
			}
			fmt.Printf("vet: %d findings, %d advisories\n", rep.Findings, rep.Advisories)
		}
		if rep.Findings > 0 {
			exit(1)
		}
	case "sweep":
		dopts.MaxAttempts = *retries
		dopts.RequestTimeout = *reqTimeout
		dopts.DialTimeout = *dialTimeout
		dopts.HedgeAfter = *hedgeAfter
		dopts.AllowPartial = *partial
		rep, err := sweep(net, snap, sweepFlags{
			k: *k, modular: *modular, auditSample: *auditSample, baseline: *baseline, saveBaseline: *saveBaseline,
			workers: *workers, threads: *threads, journal: *journal, dist: dopts,
		})
		if err != nil {
			fail(err.Error())
		}
		exit(printSweep(rep))
	default:
		usage()
	}
	exit(0)
}

// finishProfiles flushes any profiles requested with -cpuprofile /
// -memprofile; every exit path must run it, hence exit() below.
var finishProfiles = func() {}

func startProfiles(cpu, mem string) {
	stopCPU := func() {}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fail(err.Error())
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err.Error())
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	finishProfiles = func() {
		stopCPU()
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hoyan:", err)
				return
			}
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hoyan:", err)
			}
			f.Close()
		}
	}
}

func exit(code int) {
	finishProfiles()
	os.Exit(code)
}

func need(v, name string) {
	if v == "" {
		fail("missing " + name)
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "hoyan:", msg)
	exit(1)
}

// verifier builds the library verifier the single-prefix commands ask.
func verifier(net *topo.Network, snap config.Snapshot, k int) *hoyan.Verifier {
	v, err := hoyan.NetworkFrom(net, snap).Verifier(hoyan.Options{K: k})
	if err != nil {
		fail(err.Error())
	}
	return v
}

// loadBaseline loads a result store, degrading the way the operator
// wants: a usable store (bad records quarantined in memory) is kept with
// a warning, an unusable one is quarantined on disk and nil is returned
// so the caller sweeps cold.
func loadBaseline(path string) *hoyan.ResultStore {
	store, err := hoyan.LoadResultStore(path)
	var ce *hoyan.CorruptStoreError
	if errors.As(err, &ce) {
		fmt.Fprintln(os.Stderr, "hoyan: warning:", ce.Error())
		if ce.Usable {
			return store
		}
		qp, qerr := hoyan.QuarantineResultStore(path)
		if qerr != nil {
			fail(qerr.Error())
		}
		fmt.Fprintf(os.Stderr, "hoyan: corrupt store moved to %s\n", qp)
		return nil
	}
	if err != nil {
		fail(err.Error())
	}
	return store
}

// sweepFlags are the sweep command's flags: what to verify (k, modular,
// baseline, audit sample) and where and how to run it.
type sweepFlags struct {
	k            int
	modular      bool
	auditSample  float64
	baseline     string
	saveBaseline string
	workers      string // remote worker addresses; empty = in-process executors
	threads      int
	journal      string // crash-safe session journal; an existing one resumes
	dist         dist.Options
}

// sweep runs the one sweep there is: the flags become properties of one
// plan (hoyan.Network.SweepOver builds it) and pick the executors it
// runs on — in-process ones, or remote workers. A baseline store, when
// asked for, is written before returning.
func sweep(net *topo.Network, snap config.Snapshot, f sweepFlags) (*hoyan.SweepReport, error) {
	opts := hoyan.Options{K: f.k, Modular: f.modular, AuditSample: f.auditSample}
	if f.baseline != "" {
		if opts.Baseline = loadBaseline(f.baseline); opts.Baseline == nil {
			fmt.Println("no usable baseline; sweeping cold")
		}
	}
	var journal *dist.Session
	if f.journal != "" {
		var err error
		if journal, err = dist.OpenSession(f.journal); err != nil {
			return nil, err
		}
		defer journal.Close()
		if n := journal.Completed(); n > 0 {
			fmt.Printf("resuming journal %s: %d classes journaled done\n", f.journal, n)
		} else {
			fmt.Printf("journaling class completions to %s\n", f.journal)
		}
	}
	var pool dist.Pool = dist.Local(f.threads)
	if f.workers != "" {
		pool = &dist.Coordinator{Addrs: strings.Split(f.workers, ","), Opts: f.dist}
	}
	rep, store, err := hoyan.NetworkFrom(net, snap).SweepOver(opts, pool, journal, f.saveBaseline != "")
	switch {
	case journal == nil:
	case err == nil && len(rep.Run.Failed) == 0:
		if rmErr := journal.Remove(); rmErr != nil {
			fmt.Fprintln(os.Stderr, "hoyan: removing completed journal:", rmErr)
		}
	default:
		fmt.Printf("journal kept at %s; re-run the sweep with -journal %s to resume\n", f.journal, f.journal)
	}
	if err != nil {
		return nil, err
	}
	if store != nil {
		if err := store.Save(f.saveBaseline); err != nil {
			return nil, err
		}
		fmt.Printf("baseline written to %s (%d classes)\n", f.saveBaseline, len(store.Classes))
	}
	return rep, nil
}

// printSweep prints a sweep's report and returns the exit code
// (documented in usage): incompleteness dominates, so a -partial run
// with failed prefixes is 3 even when the completed subset is clean — CI
// must not mistake a partial sweep for a verified network.
func printSweep(rep *hoyan.SweepReport) int {
	for _, v := range rep.Violations {
		fmt.Printf("[violation] %s %s @ %s: %s\n", v.Kind, v.Prefix, v.Router, v.Details)
	}
	printInvalidation(rep.Delta, rep.Invalidation)
	if rep.Modular != nil {
		for _, note := range rep.Modular.Notes {
			fmt.Printf("note: %s\n", note)
		}
	}
	code := 0
	if len(rep.Violations) > 0 {
		code = 1
	}
	run := rep.Run
	for _, f := range run.Failed {
		fmt.Printf("[failed] %s after %d dispatches: %s\n", f.Prefix, f.Dispatches, f.LastError)
	}
	if run.Requeued+run.Retried+run.Hedged > 0 {
		fmt.Printf("resilience: %d passes re-queued, %d retried, %d hedged\n", run.Requeued, run.Retried, run.Hedged)
	}
	if run.Resumed+run.Redispatched > 0 {
		fmt.Printf("session: %d classes settled from the journal, %d re-dispatched after the crash\n", run.Resumed, run.Redispatched)
	}
	if len(run.Failed) > 0 {
		fmt.Printf("partial: %d prefixes never completed\n", len(run.Failed))
		code = 3
	}
	fmt.Println(rep)
	return code
}

// printInvalidation reports what an incremental sweep decided and why.
func printInvalidation(delta *core.ModelDelta, st *core.InvalidationStats) {
	if st == nil {
		return
	}
	if delta != nil && !delta.Empty() {
		fmt.Println("model delta vs baseline:")
		for _, it := range delta.Items {
			fmt.Printf("  %s\n", it)
		}
	}
	for _, note := range st.Notes {
		fmt.Printf("note: %s\n", note)
	}
	mode := "selective"
	if st.FullInvalidation {
		mode = "full"
	}
	fmt.Printf("invalidation (%s): %d classes dirty, %d replayed, %d replays audited\n",
		mode, st.ClassesDirty, st.ClassesReplayed, st.ReplaysAudited)
}
