package qc

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
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
	// conds is the record condition set Progs were lowered from. A later
	// compile reuses Progs for a record that carries this same pointer
	// (CompileStoreFrom); holding it here is what keeps the address from
	// being freed and handed to a different condition set.
	conds *logic.Portable
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
	// Reused counts the programs taken from the previous snapshot rather
	// than compiled (CompileStoreFrom); 0 for a cold compile.
	Reused int
	// CompileTime is the wall-clock cost of the compilation.
	CompileTime time.Duration
}

// Snapshot is a fully compiled ResultStore: every class's conditions as
// flat programs, the prefix→class and link→classes indexes, and the
// sweep's fixed answers. Immutable after CompileStoreFrom; safe for
// concurrent queries with per-caller Scratch/FailureSet. It holds every
// record's condition set (Class.conds), the key a later compile reuses
// its programs by.
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

// CompileStore compiles a result store for serving from scratch:
// CompileStoreFrom with no previous snapshot.
func CompileStore(st *hoyan.ResultStore) (*Snapshot, error) {
	return CompileStoreFrom(nil, st)
}

// CompileStoreFrom compiles a result store for serving: each record's
// condition roots are lowered to programs and its verdicts become the
// fixed answers — nothing is solved again. A record whose verdicts and
// condition roots do not line up (LoadResultStore quarantines those) is
// an error.
//
// A record's programs depend only on its condition set, which never
// changes after export or decode, and on the link universe. So a class
// takes prev's programs instead of compiling when prev holds the same
// condition-set pointer (a resweep carries a replayed record's forward
// unchanged), prev's link names equal st's in LinkID order, and the root
// count matches. Everything else — members, routers, verdicts, indexes,
// stats — is rebuilt from st. prev may be nil.
func CompileStoreFrom(prev *Snapshot, st *hoyan.ResultStore) (*Snapshot, error) {
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
	// An empty link universe gives -1, under which every variable is
	// refused: the impact index has no slot for one.
	maxVar := logic.Var(len(st.Links) - 1)
	var held map[*logic.Portable][]*Program
	if prev != nil && slices.Equal(prev.linkNames, snap.linkNames) {
		held = make(map[*logic.Portable][]*Program, len(prev.Classes))
		for _, c := range prev.Classes {
			held[c.conds] = c.Progs
		}
	}

	// Lower the classes prev does not hold. Classes are independent, so
	// min(GOMAXPROCS, classes to lower) goroutines take them, striped
	// statically as igp.Build stripes destinations; one class (a
	// resweep's dirty class) is lowered on this goroutine. Everything
	// after is folded serially in class order, so the snapshot, and the
	// error returned (the lowest class's), are what a serial loop gives.
	progs := make([][]*Program, len(st.Classes))
	errs := make([]error, len(st.Classes))
	var lower []int
	for ci := range st.Classes {
		rec := &st.Classes[ci]
		if !aligned(rec) {
			continue
		}
		if p, ok := held[rec.Conds]; ok && len(p) == len(rec.Verdicts) {
			progs[ci] = p
			snap.Stats.Reused += len(p)
			continue
		}
		lower = append(lower, ci)
	}
	workers := min(runtime.GOMAXPROCS(0), len(lower))
	stripe := func(g int) {
		for i := g; i < len(lower); i += workers {
			ci := lower[i]
			progs[ci], errs[ci] = lowerClass(ci, &st.Classes[ci], maxVar)
		}
	}
	if workers <= 1 {
		stripe(0)
	} else {
		var wg sync.WaitGroup
		for g := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				stripe(g)
			}()
		}
		wg.Wait()
	}

	for ci := range st.Classes {
		rec := &st.Classes[ci]
		if !aligned(rec) {
			return nil, fmt.Errorf("qc: class %d (%s): condition roots and router verdicts do not line up — re-capture the baseline with a fresh sweep", ci, strings.Join(rec.Members, " "))
		}
		if errs[ci] != nil {
			return nil, errs[ci]
		}
		sum, _ := rec.Report("")
		cls := &Class{
			Members:      append([]string(nil), rec.Members...),
			ClassMinFail: sum.MinFailures,
			Progs:        progs[ci],
			routerIdx:    make(map[string]int, len(rec.Verdicts)),
			conds:        rec.Conds,
		}
		classVars := map[logic.Var]bool{}
		for ri, v := range rec.Verdicts {
			prog := cls.Progs[ri]
			cls.Routers = append(cls.Routers, v.Router)
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
			if other, dup := snap.prefixClass[m]; dup {
				return nil, fmt.Errorf("qc: prefix %s belongs to classes %d and %d", m, other, ci)
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

// aligned reports whether a record has one condition root per verdict,
// the precondition of lowering it.
func aligned(rec *hoyan.ClassRecord) bool {
	return rec.Conds != nil && rec.Conds.NumRoots() == len(rec.Verdicts)
}

// lowerClass compiles record ci's roots to programs, one per verdict, on
// one compiler whose work arrays every root reuses.
func lowerClass(ci int, rec *hoyan.ClassRecord, maxVar logic.Var) ([]*Program, error) {
	comp := newCompiler(rec.Conds, maxVar)
	progs := make([]*Program, len(rec.Verdicts))
	for ri, v := range rec.Verdicts {
		prog, err := comp.compile(ri)
		if err != nil {
			return nil, fmt.Errorf("qc: class %d router %s: %w", ci, v.Router, err)
		}
		progs[ri] = prog
	}
	return progs, nil
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
