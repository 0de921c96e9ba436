package core

import (
	"sync"
	"sync/atomic"

	"hoyan/internal/igp"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// Shared is the immutable, sweep-wide half of simulation state: the
// assembled model plus every prefix-independent computation worth doing
// once — the IGP path-vector fixpoints behind iBGP session conditions, as
// an igp.Memo. The mutable half (formula factory, IGP engine, per-run
// scratch) lives on each Simulator.
//
// The Shared does not own its memo's RIBs: a memo is valid for an igp.Key
// (what the IGP reads of the model and options), not for this model, and
// whoever holds a memo from earlier — the previous sweep's ResultStore, a
// worker's other resident Shareds — hands it to SharedFrom, which reuses
// it when the keys are equal and propagates only the destinations it
// lacks. What the Shared guarantees is the pairing: memo and simulators
// come from the same (model, options), so seeding needs no check.
//
// Build one Shared per sweep and call NewSimulator per worker goroutine:
// workers then skip both model assembly and the per-engine IGP
// propagation storm. A Shared is safe for concurrent use.
type Shared struct {
	M    *Model
	Opts Options

	memo    *igp.Memo
	memoErr error
	xm      xMemo
}

// xMemo is the cross-prefix memo: results of the expensive formula
// queries keyed by logic.CanonicalKey, so they survive both the
// per-prefix Simulator.Reset (which discards the factory and its BDD
// caches) and worker boundaries (it lives on the Shared, concurrent-safe
// via sync.Map). Keys are factory-independent and structurally exact:
// a hit returns the answer another worker or an earlier prefix computed
// for the very same formula, which is deterministic, so results never
// depend on hit patterns.
type xMemo struct {
	// violate maps a condition's key to MinFailuresToViolate(cond).
	violate sync.Map // string -> int
	// simplify maps a condition's key to its simplified form, stored as
	// a Portable so any factory can re-import it.
	simplify sync.Map // string -> *logic.Portable
	entries  atomic.Int64

	hits, misses atomic.Int64
}

// xMemoMaxNodes caps the DAG size CanonicalKey walks for a memo key:
// beyond it the key costs more than the BDD work it might save.
const xMemoMaxNodes = 4096

// xMemoMaxEntries bounds the memo's footprint across a whole sweep.
const xMemoMaxEntries = 1 << 18

func (x *xMemo) room() bool { return x.entries.Load() < xMemoMaxEntries }

// Hits and misses report the memo's effectiveness for stats output.
func (sh *Shared) MemoHits() (hits, misses int64) {
	return sh.xm.hits.Load(), sh.xm.misses.Load()
}

// NewShared runs the one-time prefix-independent work for simulating m
// under opts, cold: SharedFrom with no earlier memo.
func NewShared(m *Model, opts Options) *Shared { return SharedFrom(m, opts, nil, 0) }

// SharedFrom is NewShared starting from have, a memo built earlier for
// this or any other model (nil when there is none): if it was built for
// the same igp.Key, only the destinations it lacks are propagated — after
// a policy or static-route edit, none. The fixpoints run on up to workers
// goroutines (<= 0 means GOMAXPROCS).
func SharedFrom(m *Model, opts Options, have *igp.Memo, workers int) *Shared {
	return newShared(m, opts, have, workers, func(_, _ topo.NodeID) bool { return true })
}

// newShared pairs the model with the memo of the sessions keep selects.
func newShared(m *Model, opts Options, have *igp.Memo, workers int, keep func(from, to topo.NodeID) bool) *Shared {
	sh := &Shared{M: m, Opts: opts.withDefaults()}
	m.Origins() // warm the origination cache before workers race to it
	sh.memo, sh.memoErr = sessionMemo(m, sh.Opts, have, workers, keep)
	return sh
}

// sessionMemo is the one place core asks for IGP fixpoints: the memo of
// the IGP-riding sessions keep selects — both endpoints of each are the
// destinations whose RIBs the session's condition reads. The three memos
// of a sweep (whole-WAN, cut, one region) differ in that selection and in
// nothing else.
func sessionMemo(m *Model, opts Options, have *igp.Memo, workers int, keep func(from, to topo.NodeID) bool) (*igp.Memo, error) {
	var dsts []topo.NodeID
	m.forEachSession(func(from, to topo.NodeID, _, viaIGP bool) {
		if viaIGP && keep(from, to) {
			dsts = append(dsts, from, to)
		}
	})
	return igp.Build(m.Net, m.Configs, igpOptions(opts.withDefaults()), dsts, have, workers)
}

// IGPMemo returns the Shared's memo, for whoever carries it to the next
// SharedFrom.
func (sh *Shared) IGPMemo() *igp.Memo { return sh.memo }

// Err reports a memo that could not be built whole: a destination whose
// fixpoint hit the step cap (igp.Build). The Shared still simulates —
// its simulators propagate that destination themselves, as far as the cap
// lets them — but a sweep must fail on it rather than report verdicts
// from a cut-off RIB.
func (sh *Shared) Err() error { return sh.memoErr }

// IGPKey is the igp.Key of what the IGP reads of m under opts: the key
// SharedFrom's memo for them is valid for, without building it.
func IGPKey(m *Model, opts Options) string {
	return igp.Key(m.Net, m.Configs, igpOptions(opts.withDefaults()))
}

// Classes exposes the model's prefix behavior-class partition — the unit
// of work of a classed sweep (one representative simulation per class).
func (sh *Shared) Classes() []PrefixClass { return sh.M.Classes() }

// NewSimulator derives a fresh per-worker simulator: its own formula
// factory and IGP engine (factories are not safe for concurrent use),
// seeded with the shared IGP memo so session conditions replay from the
// snapshot instead of re-running propagation.
func (sh *Shared) NewSimulator() *Simulator {
	s := NewSimulator(sh.M, sh.Opts)
	s.shared = sh
	s.IGP.Seed(sh.memo)
	return s
}

// minFailuresToViolate answers MinFailuresToViolate through the
// cross-prefix memo when the simulator hangs off a Shared; the per-factory
// front cache keeps repeat queries on the same formula O(1) within a run.
func (s *Simulator) minFailuresToViolate(cond logic.F) int {
	if s.shared == nil {
		return s.F.MinFailuresToViolate(cond)
	}
	if v, ok := s.violateCache[cond]; ok {
		return v
	}
	xm := &s.shared.xm
	key, keyed := s.F.CanonicalKey(cond, xMemoMaxNodes)
	if keyed {
		if v, ok := xm.violate.Load(key); ok {
			xm.hits.Add(1)
			s.violateCache[cond] = v.(int)
			return v.(int)
		}
	}
	v := s.F.MinFailuresToViolate(cond)
	xm.misses.Add(1)
	if keyed && xm.room() {
		xm.violate.Store(key, v)
		xm.entries.Add(1)
	}
	s.violateCache[cond] = v
	return v
}

// simplifyCond answers Factory.Simplify through the cross-prefix memo: a
// hit imports the previously extracted (small) form instead of rebuilding
// the condition's BDD from scratch in the current factory.
func (s *Simulator) simplifyCond(cond logic.F) logic.F {
	if s.shared == nil {
		return s.F.Simplify(cond)
	}
	if v, ok := s.simplifyCache[cond]; ok {
		return v
	}
	xm := &s.shared.xm
	key, keyed := s.F.CanonicalKey(cond, xMemoMaxNodes)
	if keyed {
		if v, ok := xm.simplify.Load(key); ok {
			xm.hits.Add(1)
			out := v.(*logic.Portable).Import(s.F)[0]
			s.simplifyCache[cond] = out
			return out
		}
	}
	out := s.F.Simplify(cond)
	xm.misses.Add(1)
	if keyed && xm.room() {
		xm.simplify.Store(key, s.F.Export(out))
		xm.entries.Add(1)
	}
	s.simplifyCache[cond] = out
	return out
}
