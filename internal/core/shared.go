package core

import (
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
	// home marks, per node, the senders a region Shared's passes announce
	// from (its region); nil for a whole-WAN Shared, whose passes announce
	// from every node.
	home []bool
}

// MemoHits is always 0, 0: the cross-prefix memo it counted is gone
// (DESIGN.md, "Prefix equivalence classes"). benchmark/trace.go calls it
// and may not change in the PR that deletes the memo; it goes with the
// benchmark's core.xmemo_* counters (ROADMAP.md, pending benchmark PR).
func (sh *Shared) MemoHits() (hits, misses int64) { return 0, 0 }

// NewShared runs the one-time prefix-independent work for simulating m
// under opts, cold: SharedFrom with no earlier memo.
func NewShared(m *Model, opts Options) *Shared { return SharedFrom(m, opts, nil, 0) }

// SharedFrom is NewShared starting from have, a memo built earlier for
// this or any other model (nil when there is none): if it was built for
// the same igp.Key, only the destinations it lacks are propagated — after
// a policy or static-route edit, none. The fixpoints run on up to workers
// goroutines (<= 0 means GOMAXPROCS).
func SharedFrom(m *Model, opts Options, have *igp.Memo, workers int) *Shared {
	return newShared(m, opts, have, workers, nil)
}

// newShared pairs the model with the memo of the sessions inside home
// (the Shared's field; nil: every session).
func newShared(m *Model, opts Options, have *igp.Memo, workers int, home []bool) *Shared {
	sh := &Shared{M: m, Opts: opts, home: home}
	m.Origins() // warm the origination cache before workers race to it
	sh.memo, sh.memoErr = sessionMemo(m, sh.Opts, have, workers, func(from, to topo.NodeID) bool {
		return home == nil || home[from] && home[to]
	})
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
	return igp.Build(m.Net, m.Configs, igpOptions(opts), dsts, have, workers)
}

// inBase reports whether the session from→to, an IGP-riding one, is in
// the session base of the Shared's simulators (Simulator.buildBase): its
// Shared's passes announce it, and the memo holds both endpoints' RIBs (a
// destination whose fixpoint hit the step cap is left out). A simulator
// without a Shared has no memo, so its base holds no such session.
func (sh *Shared) inBase(from, to topo.NodeID) bool {
	return sh != nil && (sh.home == nil || sh.home[from]) && sh.memo.Holds(from) && sh.memo.Holds(to)
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
	return igp.Key(m.Net, m.Configs, igpOptions(opts))
}

// Classes exposes the model's prefix behavior-class partition — the unit
// of work of a classed sweep (one representative simulation per class).
func (sh *Shared) Classes() []PrefixClass { return sh.M.Classes() }

// NewSimulator derives a fresh per-worker simulator: its own formula
// factory and IGP engine (factories are not safe for concurrent use),
// seeded with the shared IGP memo so session conditions replay from the
// snapshot instead of re-running propagation. Its first pass builds its
// session base — the condition and BDD of every session its passes
// announce whose endpoints' RIBs the memo holds — which a Reset keeps
// (Simulator.Reset).
func (sh *Shared) NewSimulator() *Simulator { return sh.NewSimulatorFrom(nil) }

// NewSimulatorFrom is NewSimulator for an executor moving to this Shared
// from prev, the simulator of its last pass (nil when there was none).
// When prev simulates the same network — another region's Shared of one
// model, another failure budget — the new simulator takes prev's factory
// over — its Mark dropped, recycled to the constants, then given this
// Shared's session base — instead of allocating its own; prev's Results
// then panic as after a Reset, and prev must not be used again.
func (sh *Shared) NewSimulatorFrom(prev *Simulator) *Simulator {
	var f *logic.Factory
	if prev != nil && prev.M.Net == sh.M.Net {
		f = prev.F
		f.Unmark()
		f.Recycle()
	} else {
		f = logic.NewFactoryOrdered(sh.M.Net.VarOrder())
	}
	return newSimulator(sh.M, sh.Opts, f, sh)
}
