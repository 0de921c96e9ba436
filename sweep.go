package hoyan

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
	"hoyan/internal/dist"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// PrefixSummary is the per-prefix outcome of a full sweep.
type PrefixSummary struct {
	Prefix string
	// MinFailures is the smallest failure count that makes the prefix
	// unreachable somewhere it should be reachable (-1 when within the
	// budget nothing breaks it).
	MinFailures int
	// WeakestRouter is where that minimal break happens.
	WeakestRouter string
	// SimTime is the per-prefix simulation time (the Figure 8 sample).
	// Class members replicated from a representative report carry the
	// representative's time, replayed classes the time their baseline
	// recorded, and journal-resumed classes none.
	SimTime time.Duration
}

// SweepReport aggregates a whole-network verification run.
type SweepReport struct {
	Prefixes []PrefixSummary
	// Violations collects reachability losses (prefix unreachable at a
	// BGP-speaking router even with all links up).
	Violations []Violation
	Duration   time.Duration
	// Workers is the number of executors the sweep ran on.
	Workers int
	// Classes is the size of the dispatch partition: the behavior-class
	// count. See DESIGN.md, "Prefix equivalence classes".
	Classes int
	// Audited counts non-representative class members that were fully
	// simulated and diffed against their replicated report
	// (Options.AuditSample). The sweep fails loudly on any divergence.
	Audited int
	// Replayed counts classes whose reports came from the baseline store
	// instead of simulation (incremental mode; see DESIGN.md,
	// "Incremental re-verification").
	Replayed int
	// Invalidation carries the incremental-mode counters and the delta
	// kind histogram; nil for cold sweeps.
	Invalidation *core.InvalidationStats
	// Delta is the model delta an incremental sweep acted on; nil for
	// cold sweeps.
	Delta *core.ModelDelta
	// Modular carries the region-partition counters of a modular sweep
	// (Options.Modular), including every fallback to monolithic
	// simulation; nil for monolithic sweeps.
	Modular *ModularStats
	// Run is the scheduler's own account of the sweep (never nil):
	// per-executor assignment, resilience counters, journal replays and
	// — under dist.Options.AllowPartial — the prefixes that never
	// completed, which are then absent from Prefixes. Classes replayed
	// from the baseline never reach the scheduler and have no entry in
	// Run.ByPrefix.
	Run *dist.Result
}

// Sweep verifies every announced prefix at every BGP router on `workers`
// in-process executors — the deployment mode of §8 ("50 threads ...
// Hoyan could be run in a distributed way"). workers <= 0 uses
// GOMAXPROCS. See SweepOver.
func (n *Network) Sweep(opts Options, workers int) (*SweepReport, error) {
	rep, _, err := n.SweepOver(opts, dist.Local(workers), nil, false)
	return rep, err
}

// SweepBaseline is Sweep plus baseline capture: it returns a ResultStore
// holding the swept model and every class's verdicts, taint set, and
// portable reachability conditions, for use as Options.Baseline in later
// incremental sweeps. When this sweep is itself incremental, replayed
// classes carry their baseline records forward unchanged, so a
// perturbation series pays capture cost only for re-simulated classes.
func (n *Network) SweepBaseline(opts Options, workers int) (*SweepReport, *ResultStore, error) {
	return n.SweepOver(opts, dist.Local(workers), nil, true)
}

// SweepOver is the sweep: build one plan, run the one scheduler
// (dist.Run) over the pool's executors — dist.Local(n) in-process ones,
// or the remote workers of a *dist.Coordinator — and fold the verdicts.
// The model is assembled exactly once; in-process executors share it
// read-only together with one IGP memo per (budget, region)
// (core.Shared), each owning only the cheap mutable half. The memo
// outlives the sweep wherever the sweep's knowledge does: capture leaves
// it on the returned store, and a sweep given that store as its baseline
// starts from it (igp.Build decides, by igp.Key, whether it still
// applies), so an edit the IGP cannot see re-runs no IS-IS fixpoint.
//
// The unit of work is a prefix behavior class, not a prefix: prefixes
// the assembled model treats identically (core.Model.Classes) share one
// representative simulation whose verdicts settle every member.
// Everything else is a property of the plan, and the properties compose:
//
//   - Options.Baseline makes the sweep incremental: the current model is
//     diffed against the baseline's, only the classes the delta can
//     affect are simulated, and the baseline's reports are replayed for
//     the rest. Results are identical to a cold sweep by construction.
//   - Options.AuditSample simulates a seeded sample of replicated
//     members and replayed classes in full and fails loudly when one
//     diverges from the report it was given.
//   - Options.Modular runs every simulation as region passes.
//   - journal makes the sweep a crash-safe session (dist.OpenSession):
//     a fresh journal records the plan, an existing one resumes it.
//   - capture returns the baseline store of SweepBaseline.
//
// Every class record is built from what the passes answered
// (dist.Record), on whichever executors they ran, fresh or resumed. One
// combination is refused: capture with Modular, since a class record
// holds the whole-WAN taint set and conditions of one pass, and a region
// pass sees one region.
func (n *Network) SweepOver(opts Options, pool dist.Pool, journal *dist.Session, capture bool) (*SweepReport, *ResultStore, error) {
	if len(n.errs) > 0 {
		return nil, nil, n.errs[0]
	}
	_, reg, _ := opts.resolve()
	model, err := core.Assemble(n.net, n.snap, reg)
	if err != nil {
		return nil, nil, err
	}
	return n.sweepClasses(opts, model, model.Classes(), pool, journal, capture)
}

// resolve fills the option defaults and derives what a sweep hands the
// core layer: the behavior registry and the simulation options.
func (o Options) resolve() (Options, *behavior.Registry, core.Options) {
	if o.K == 0 {
		o.K = 3
	}
	reg := o.Profiles
	if reg == nil {
		reg = behavior.TrueProfiles()
	}
	copts := core.DefaultOptions()
	copts.K = o.K
	return o, reg, copts
}

// planHash names the model a plan verifies: the topology and configs
// (dist.ModelHash) and, where it differs from the registry remote workers
// assemble with, the behavior registry reg (profilesKey). A pass for a
// custom registry then fails on a remote worker instead of answering
// under the true profiles, and a journal written under one registry
// refuses a sweep under another.
func (n *Network) planHash(reg *behavior.Registry) string {
	hash := dist.ModelHash(n.net, n.snap)
	if key := profilesKey(n.net, reg); key != "" {
		return hash + "+profiles-" + key
	}
	return hash
}

// profilesKey fingerprints the behavior registry reg as the nodes of net
// see it: "" when every node's vendor gets its true profile
// (behavior.TrueProfiles, the registry remote workers assemble with),
// otherwise a hash of the profile each node gets. Two registries that
// give the network's vendors the same profiles share a key, and two that
// do not never do. Plans (planHash) and result stores (optionsHash) are
// keyed by it.
func profilesKey(net *topo.Network, reg *behavior.Registry) string {
	truth := behavior.TrueProfiles()
	h, custom := sha256.New(), false
	for _, node := range net.Nodes() {
		p := reg.Get(node.Vendor)
		custom = custom || p != truth.Get(node.Vendor)
		fmt.Fprintf(h, "%+v\n", p)
	}
	if !custom {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sweepClasses sweeps the model under a given dispatch partition —
// model.Classes() in production; the equivalence tests pass singleton
// classes as the unclassed reference.
func (n *Network) sweepClasses(opts Options, model *core.Model, classes []core.PrefixClass,
	pool dist.Pool, journal *dist.Session, capture bool) (*SweepReport, *ResultStore, error) {
	opts, reg, _ := opts.resolve()
	if capture && opts.Modular {
		return nil, nil, fmt.Errorf("hoyan: baseline capture requires monolithic simulation (a region pass does not see the whole-WAN taint set and conditions; Modular is set)")
	}
	rep := &SweepReport{Classes: len(classes), Run: &dist.Result{}}
	if len(classes) == 0 {
		if capture {
			return rep, newStoreShell(n, opts, reg), nil
		}
		return rep, nil, nil
	}

	// Incremental planning: diff against the baseline, split classes into
	// dirty (simulate) and clean (replay the cached record).
	var incr *incrementalPlan
	if opts.Baseline != nil {
		incr = planIncremental(model, classes, opts.Baseline, opts, reg)
		rep.Invalidation, rep.Delta = incr.stats, incr.delta
	}

	// The plan always names its model: a journal written for another one
	// must refuse it, and multi-model workers would otherwise run an
	// unhashed pass against whichever model is their default.
	plan := &dist.Plan{K: opts.K, ModelHash: n.planHash(reg), Journal: journal,
		Model: model, Classes: make([]dist.Class, len(classes)), Capture: capture}
	if opts.Baseline != nil {
		plan.IGP = opts.Baseline.igp
	}
	var homes []string
	if opts.Modular {
		rep.Modular, plan.Regions, homes = planModular(model, classes, opts.K)
	}
	// Audit selection comes up front from seeded sources, so the chosen
	// prefixes do not depend on executor count or scheduling.
	replayAudits, memberAudits := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(1))
	for i, cls := range classes {
		c := &plan.Classes[i]
		c.Members = cls.MemberStrings()
		if homes != nil {
			c.Home = homes[i]
		}
		switch {
		case incr != nil && !incr.dirty[i]:
			c.Replayed = true
			rep.Replayed++
			if opts.AuditSample > 0 && replayAudits.Float64() < opts.AuditSample {
				c.Audit = c.Members[:1]
			}
		case opts.AuditSample > 0:
			for _, m := range c.Members[1:] {
				if memberAudits.Float64() < opts.AuditSample {
					c.Audit = append(c.Audit, m)
				}
			}
		}
	}

	start := time.Now()
	res, err := dist.Run(plan, pool)
	if err != nil {
		return nil, nil, err
	}
	rep.Duration, rep.Workers, rep.Run = time.Since(start), res.Executors, res
	if ms := rep.Modular; ms != nil {
		ms.settle(plan, res)
	}

	// report is the report a prefix of class i settled with: the baseline
	// record's for a replayed class, else the fold of the verdicts the
	// scheduler settled (absent when the prefix failed, and was allowed
	// to: see rep.Run.Failed).
	report := func(i int, m string) (PrefixSummary, []Violation, bool) {
		if plan.Classes[i].Replayed {
			sum, viols := incr.records[i].Report(m)
			return sum, viols, true
		}
		vs, ok := res.ByPrefix[m]
		if !ok {
			return PrefixSummary{}, nil, false
		}
		sum, viols := foldVerdicts(m, vs, res.SimTime[plan.Classes[i].Members[0]])
		return sum, viols, true
	}
	for i, c := range plan.Classes {
		for _, m := range c.Members {
			if sum, viols, ok := report(i, m); ok {
				rep.Prefixes = append(rep.Prefixes, sum)
				rep.Violations = append(rep.Violations, viols...)
			}
		}
		for _, a := range c.Audit {
			sum, viols, ok := report(i, a)
			got := res.Audits[a]
			if !ok || got == nil {
				continue // never completed, and allowed to
			}
			err := diffAudit(a, c.Members[0], sum, viols, got)
			if !c.Replayed {
				rep.Audited++
			} else {
				rep.Invalidation.ReplaysAudited++
				switch rec := incr.records[i]; {
				case err != nil:
					err = fmt.Errorf("hoyan: incremental replay audit: stale cached report: %w", err)
				case rec.Conds != nil:
					err = auditCond(rec, a, got, res.Records[a], model)
				}
			}
			if err != nil {
				return nil, nil, err
			}
		}
	}
	sort.Slice(rep.Prefixes, func(i, j int) bool { return rep.Prefixes[i].Prefix < rep.Prefixes[j].Prefix })
	sort.Slice(rep.Violations, func(i, j int) bool {
		if rep.Violations[i].Prefix != rep.Violations[j].Prefix {
			return rep.Violations[i].Prefix < rep.Violations[j].Prefix
		}
		return rep.Violations[i].Router < rep.Violations[j].Router
	})

	var store *ResultStore
	if capture {
		store = newStoreShell(n, opts, reg)
		// When no pass ran in-process nothing reported a memo; the one the
		// plan started from stays the best there is.
		store.igp = cmp.Or(res.IGP, plan.IGP)
		for i, c := range plan.Classes {
			if c.Replayed {
				store.Classes = append(store.Classes, *incr.records[i]) // carried forward unchanged
				continue
			}
			r := c.Members[0]
			pass := res.Records[r]
			if pass == nil {
				return nil, nil, fmt.Errorf("hoyan: no record captured for class %d (%s)", i, r)
			}
			store.Classes = append(store.Classes, newClassRecord(c.Members, res.ByPrefix[r], res.SimTime[r], pass))
		}
	}
	return rep, store, nil
}

// foldVerdicts folds one prefix's per-router verdicts, in the model's
// node order, into the report: a violation per unreachable BGP speaker,
// and the smallest within-budget failure count (the first router in
// node order wins ties) as the prefix's weak point. Every report — of a
// simulated, replicated, replayed, resumed or audited prefix, whichever
// executor answered — comes out of this one fold.
func foldVerdicts(prefix string, vs []dist.RouterSummary, simTime time.Duration) (PrefixSummary, []Violation) {
	sum := PrefixSummary{Prefix: prefix, MinFailures: -1, SimTime: simTime}
	minIdx, nviol := scanVerdicts(vs)
	if minIdx >= 0 {
		sum.MinFailures, sum.WeakestRouter = vs[minIdx].MinFailures, vs[minIdx].Router
	}
	if nviol == 0 {
		return sum, nil
	}
	viols := make([]Violation, 0, nviol)
	for i := range vs {
		if !vs[i].Reachable {
			viols = append(viols, Violation{
				Kind: "reachability", Prefix: prefix, Router: vs[i].Router,
				Details: "no route with all links up",
			})
		}
	}
	return sum, viols
}

// scanVerdicts selects the weakest in-budget verdict (the index of the
// first minimal MinFailures among reachable routers; beyond the budget
// it is -1) and counts violations. It runs once per prefix per sweep
// over every BGP speaker's verdict, on the summary evaluation path.
//
//hoyan:hotpath
func scanVerdicts(vs []dist.RouterSummary) (minIdx, nviol int) {
	minIdx = -1
	for i := range vs {
		if !vs[i].Reachable {
			nviol++
			continue
		}
		if m := vs[i].MinFailures; m >= 0 && (minIdx == -1 || m < vs[minIdx].MinFailures) {
			minIdx = i
		}
	}
	return minIdx, nviol
}

// auditCond is the condition half of a replay audit of prefix p: the
// stored condition root at the record's anchor router must still be
// equivalent to the root there of the audit pass's record (fresh, whose
// roots follow the audit's verdicts got). Both are imported into one new
// factory over the model's variable order and compared there.
func auditCond(rec *ClassRecord, p string, got []dist.RouterSummary, fresh *dist.Record, model *core.Model) error {
	a := rec.anchor()
	router := rec.Verdicts[a].Router
	i := slices.IndexFunc(got, func(s dist.RouterSummary) bool { return s.Router == router })
	if i < 0 || fresh == nil || fresh.Conds == nil {
		return fmt.Errorf("hoyan: incremental replay audit for %s: no pass covered the condition anchor %q", p, router)
	}
	f := logic.NewFactoryOrdered(model.Net.VarOrder())
	if !f.Equivalent(rec.Conds.Import(f)[a], fresh.Conds.Import(f)[i]) {
		return fmt.Errorf("hoyan: incremental replay audit for %s: stored reachability condition at %s no longer equivalent to fresh simulation", p, router)
	}
	return nil
}

// diffAudit compares the report an audited prefix's fully simulated
// verdicts fold to against the one the sweep gave it — replicated from
// its class representative repP, or replayed from the baseline.
func diffAudit(p, repP string, rep PrefixSummary, repV []Violation, got []dist.RouterSummary) error {
	sum, gotV := foldVerdicts(p, got, 0)
	if sum.MinFailures != rep.MinFailures || sum.WeakestRouter != rep.WeakestRouter {
		return fmt.Errorf("hoyan: sweep audit divergence for %s (class of %s): got MinFailures=%d WeakestRouter=%q, replicated MinFailures=%d WeakestRouter=%q",
			p, repP, sum.MinFailures, sum.WeakestRouter, rep.MinFailures, rep.WeakestRouter)
	}
	if len(gotV) != len(repV) {
		return fmt.Errorf("hoyan: sweep audit divergence for %s (class of %s): %d violations, replicated %d",
			p, repP, len(gotV), len(repV))
	}
	for i := range gotV {
		if gotV[i] != repV[i] {
			return fmt.Errorf("hoyan: sweep audit divergence for %s (class of %s): violation %d is %s@%s, replicated %s@%s",
				p, repP, i, gotV[i].Kind, gotV[i].Router, repV[i].Kind, repV[i].Router)
		}
	}
	return nil
}

// String summarizes the sweep for logs.
func (r *SweepReport) String() string {
	weak := 0
	for _, p := range r.Prefixes {
		if p.MinFailures >= 0 {
			weak++
		}
	}
	s := fmt.Sprintf("sweep: %d prefixes in %d classes on %d workers in %s (%d reachability violations, %d prefixes breakable within budget",
		len(r.Prefixes), r.Classes, r.Workers, r.Duration.Round(time.Millisecond), len(r.Violations), weak)
	if r.Audited > 0 {
		s += fmt.Sprintf(", %d members audited", r.Audited)
	}
	if r.Replayed > 0 {
		s += fmt.Sprintf(", %d classes replayed from baseline", r.Replayed)
	}
	if r.Invalidation != nil && r.Invalidation.ReplaysAudited > 0 {
		s += fmt.Sprintf(", %d replays audited", r.Invalidation.ReplaysAudited)
	}
	if r.Modular != nil {
		switch {
		case r.Modular.Fallback:
			s += ", modular fallback: no usable partition"
		default:
			s += fmt.Sprintf(", modular: %d regions, %d passes, %d refusals (%d predicted)", r.Modular.Regions, r.Modular.Passes, r.Modular.Refused, r.Modular.Predicted)
		}
	}
	return s + ")"
}
