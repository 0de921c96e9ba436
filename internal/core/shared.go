package core

import (
	"hoyan/internal/igp"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// Shared is the immutable, sweep-wide half of simulation state: the
// assembled model plus every prefix-independent computation worth doing
// once — the IGP path-vector fixpoints behind iBGP session conditions, as
// an igp.Memo of every node's reachability condition toward each session
// endpoint. The mutable half (formula factory, IGP engine, per-run
// scratch) lives on each Simulator, whose session base imports from the
// memo exactly the conditions its sessions read (Simulator.buildBase).
// A Shared is the only way to a Simulator, and its memo the only source
// of IGP-riding session conditions.
//
// The Shared does not own its memo: a memo is valid for an igp.Key (what
// the IGP reads of the model and options), not for this model, and
// whoever holds a memo from earlier — the previous sweep's ResultStore, a
// worker's other resident Shareds — hands it to SharedFrom, which reuses
// it when the keys are equal and propagates only the destinations it
// lacks. What the Shared guarantees is the pairing: memo and simulators
// come from the same (model, options), so reading the memo needs no
// check.
//
// Build one Shared per sweep and call NewSimulator per worker goroutine:
// workers then skip both model assembly and IGP propagation. A Shared is
// safe for concurrent use.
type Shared struct {
	M    *Model
	Opts Options

	memo    *igp.Memo
	memoErr error
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
	sh := &Shared{M: m, Opts: opts}
	m.Origins() // warm the origination cache before workers race to it
	var dsts []topo.NodeID
	for _, se := range m.Sessions() {
		if se.ViaIGP {
			dsts = append(dsts, se.From, se.To)
		}
	}
	sh.memo, sh.memoErr = igp.Build(m.Net, m.Configs, igpOptions(opts), dsts, have, workers)
	return sh
}

// IGPMemo returns the Shared's memo, for whoever carries it to the next
// SharedFrom; nil for a nil Shared (a run with nothing to simulate).
func (sh *Shared) IGPMemo() *igp.Memo {
	if sh == nil {
		return nil
	}
	return sh.memo
}

// Err reports a memo that could not be built whole: a destination whose
// fixpoint hit the step cap (igp.Build), named in the error. Its
// simulators refuse every pass with this error (Simulator.Run, RunRegion,
// SessionList) rather than answer from a cut-off RIB.
func (sh *Shared) Err() error { return sh.memoErr }

// IGPKey is the igp.Key of what the IGP reads of m under opts: the key
// SharedFrom's memo for them is valid for, without building it.
func IGPKey(m *Model, opts Options) string {
	return igp.Key(m.Net, m.Configs, igpOptions(opts))
}

// NewSimulator derives a fresh per-worker simulator: its own formula
// factory and IGP engine (factories are not safe for concurrent use).
// Its first pass builds its session base — the condition and BDD of every
// IGP-riding session, imported from the memo — which a Reset keeps
// (Simulator.Reset). Its region passes (Simulator.RunRegion) share the
// memo and the base with its monolithic ones: a region is an argument of
// the pass, not of the Shared.
func (sh *Shared) NewSimulator() *Simulator {
	return newSimulator(sh, logic.NewFactoryOrdered(sh.M.Net.VarOrder()))
}
