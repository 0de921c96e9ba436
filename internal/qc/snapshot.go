package qc

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hoyan"
	"hoyan/internal/logic"
)

// Class is one behavior class compiled for serving: a program per
// BGP-speaking router, the sweep's verdicts as the answers to the fixed
// questions (all-links-up reachability, min failures to violate), and
// the membership the per-class answers fan out to.
type Class struct {
	// Members are the class's prefixes (sorted, from the record).
	Members []string
	// Routers are the BGP speakers, aligned with Progs/MinFail/ReachUp.
	Routers []string
	// Progs[i] evaluates the reachability condition at Routers[i].
	Progs []*Program
	// MinFail[i] is the sweep's verdict at Routers[i]: the min failures
	// that break reachability there, -1 when it survives the budget K.
	MinFail []int
	// ReachUp[i] is the all-links-up verdict at Routers[i].
	ReachUp []bool
	// ClassMinFail is the class's sweep summary (ClassRecord.Report): the
	// smallest MinFail over routers reachable with all links up, -1 when
	// every such router survives the budget. Routers unreachable even
	// with all links up are sweep violations, not failure-tolerance data
	// points.
	ClassMinFail int

	routerIdx map[string]int
}

// Router resolves a router name to its root index.
func (c *Class) Router(name string) (int, bool) {
	i, ok := c.routerIdx[name]
	return i, ok
}

// CompileStats summarizes one store compilation for logs and the
// snapshot-registry listing.
type CompileStats struct {
	Classes  int
	Prefixes int
	Programs int
	// Instrs is the total instruction count across programs. Decisions is
	// a vestige of the removed decision-diagram form, always 0; its only
	// reader is benchmark/trace.go (qc.decisions_total).
	Instrs    int
	Decisions int
	// Links is the baseline topology's link count (the variable universe).
	Links int
	// CompileTime is the wall-clock cost of CompileStore.
	CompileTime time.Duration
}

// Snapshot is a fully compiled ResultStore: every class's conditions as
// flat programs, the prefix→class and link→classes indexes, and the
// sweep's fixed answers. Immutable after CompileStore; safe for
// concurrent queries with per-caller Scratch/FailureSet.
type Snapshot struct {
	// K is the failure budget the store was swept under; evaluation is
	// exact only for failure sets of at most K links (conditions beyond
	// the budget were pruned at simulation time).
	K int
	// OptionsHash is carried from the store for drift diagnostics.
	OptionsHash string
	Classes     []*Class
	Stats       CompileStats

	prefixClass map[string]int
	// linkVar maps the canonical "a~b" (endpoint-sorted) link name to its
	// variable; linkNames is the inverse, indexed by variable.
	linkVar   map[string]logic.Var
	linkNames []string
	// impact[v] lists, sorted, the classes whose conditions mention link
	// variable v — the "which prefixes does this link's death affect"
	// reverse index, built once at compile time.
	impact    [][]int
	maxInstrs int
}

// canonicalLink renders an endpoint pair in sorted order.
func canonicalLink(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "~" + b
}

// CompileStore compiles a result store for serving: each record's
// condition roots are lowered to programs and its verdicts become the
// fixed answers — nothing is solved again. A record whose verdicts and
// condition roots do not line up (LoadResultStore quarantines those) is
// an error.
func CompileStore(st *hoyan.ResultStore) (*Snapshot, error) {
	start := time.Now()
	snap := &Snapshot{
		K:           st.K,
		OptionsHash: st.OptionsHash,
		prefixClass: make(map[string]int, 4*len(st.Classes)),
		linkVar:     make(map[string]logic.Var, len(st.Links)),
		linkNames:   make([]string, len(st.Links)),
		impact:      make([][]int, len(st.Links)),
	}
	// Stored links are in LinkID order (newStoreShell appends
	// Network.Links() in ID order) and link variables are LinkIDs, so
	// index i in the stored array is variable i.
	for i, l := range st.Links {
		name := canonicalLink(l.A, l.B)
		snap.linkNames[i] = name
		if _, dup := snap.linkVar[name]; !dup {
			snap.linkVar[name] = logic.Var(i)
		}
	}
	maxVar := logic.Var(len(st.Links) - 1)

	for ci := range st.Classes {
		rec := &st.Classes[ci]
		if rec.Conds == nil || rec.Conds.NumRoots() != len(rec.Verdicts) {
			return nil, fmt.Errorf("qc: class %d (%s): condition roots and router verdicts do not line up — re-capture the baseline with a fresh sweep", ci, strings.Join(rec.Members, " "))
		}
		sum, _ := rec.Report("")
		cls := &Class{
			Members:      append([]string(nil), rec.Members...),
			ClassMinFail: sum.MinFailures,
			routerIdx:    make(map[string]int, len(rec.Verdicts)),
		}
		classVars := map[logic.Var]bool{}
		comp := newCompiler(rec.Conds, maxVar)
		for ri, v := range rec.Verdicts {
			prog, err := comp.compile(ri)
			if err != nil {
				return nil, fmt.Errorf("qc: class %d router %s: %w", ci, v.Router, err)
			}
			cls.Routers = append(cls.Routers, v.Router)
			cls.Progs = append(cls.Progs, prog)
			cls.ReachUp = append(cls.ReachUp, v.Reachable)
			cls.MinFail = append(cls.MinFail, v.MinFailures)
			cls.routerIdx[v.Router] = ri
			for _, lv := range prog.Vars() {
				classVars[lv] = true
			}
			snap.Stats.Instrs += prog.NumInstrs()
			if prog.NumInstrs() > snap.maxInstrs {
				snap.maxInstrs = prog.NumInstrs()
			}
		}
		snap.Stats.Programs += len(cls.Progs)
		for v := range classVars {
			snap.impact[v] = append(snap.impact[v], ci)
		}
		for _, m := range cls.Members {
			if prev, dup := snap.prefixClass[m]; dup {
				return nil, fmt.Errorf("qc: prefix %s belongs to classes %d and %d", m, prev, ci)
			}
			snap.prefixClass[m] = ci
		}
		snap.Classes = append(snap.Classes, cls)
	}
	// Class indices were appended in class order per variable, so each
	// impact list is already sorted; pin it anyway against future
	// reorderings — the list feeds user-visible output.
	for _, l := range snap.impact {
		sort.Ints(l)
	}
	snap.Stats.Classes = len(snap.Classes)
	snap.Stats.Prefixes = len(snap.prefixClass)
	snap.Stats.Links = len(st.Links)
	snap.Stats.CompileTime = time.Since(start)
	return snap, nil
}

// ClassOf resolves a prefix to its compiled class.
func (s *Snapshot) ClassOf(prefix string) (*Class, bool) {
	i, ok := s.prefixClass[prefix]
	if !ok {
		return nil, false
	}
	return s.Classes[i], true
}

// ResolveLink maps an "a~b" link name (either endpoint order) to its
// variable.
func (s *Snapshot) ResolveLink(name string) (logic.Var, bool) {
	a, b, ok := strings.Cut(name, "~")
	if !ok {
		return 0, false
	}
	v, ok := s.linkVar[canonicalLink(a, b)]
	return v, ok
}

// LinkName returns the canonical name of link variable v.
func (s *Snapshot) LinkName(v logic.Var) string {
	if v < 0 || int(v) >= len(s.linkNames) {
		return ""
	}
	return s.linkNames[v]
}

// Impacted returns the classes whose conditions mention link v, sorted
// by class index. The slice is shared — callers must not mutate it.
func (s *Snapshot) Impacted(v logic.Var) []*Class {
	if v < 0 || int(v) >= len(s.impact) {
		return nil
	}
	out := make([]*Class, len(s.impact[v]))
	for i, ci := range s.impact[v] {
		out[i] = s.Classes[ci]
	}
	return out
}

// NewScratch returns an evaluation scratch pre-sized for the snapshot's
// largest program, so the first query through it already allocates
// nothing.
func (s *Snapshot) NewScratch() *Scratch {
	sc := &Scratch{}
	sc.ensure(s.maxInstrs)
	return sc
}

// NewFailureSet returns a failure set sized for the snapshot's link
// universe.
func (s *Snapshot) NewFailureSet() *FailureSet {
	if s.Stats.Links == 0 {
		return &FailureSet{bits: make([]uint64, 1)}
	}
	return NewFailureSet(logic.Var(s.Stats.Links - 1))
}
