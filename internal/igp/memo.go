// The IGP memo: per-destination RIBs computed once and reused by every
// engine that reads the same inputs.
//
// An Engine memoizes propagate per destination, but that cache is private
// to one engine and one factory, and a sweep makes an engine per executor
// and per Reset. A Memo holds the computed RIBs outside any engine, each
// destination's conditions as its own factory-independent logic.Portable:
// a seeded engine imports the RIBs it touches, one destination at a time,
// and propagates nothing.
//
// Identity: a Memo is valid for an igp.Key — a fingerprint of exactly
// what New and propagate read (node ids, names and regions; link ids,
// endpoints and weights; each node's IS-IS enabled/level/penetrate/metric
// overrides; Options) — not for a model. Two models that differ only in
// what the IGP never reads (policies, static routes, BGP neighbours,
// announced prefixes) have equal keys and share one memo, which is what
// lets a policy edit's resweep run no fixpoint at all. Nothing is ever
// invalidated in place: RIBs are immutable, and a different key simply
// does not match.
//
// Ownership: Build is the only producer. Whoever carries knowledge from
// one sweep to the next carries the memo with it and hands it back as
// Build's `have`: a hoyan.ResultStore across resweeps, a dist.Worker's
// resident core.Shareds across models. The igp package keeps no cache of
// its own, so a sweep that is handed nothing starts cold.
package igp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"

	"hoyan/internal/config"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
)

// Key fingerprints everything the IGP reads: two (network, configs,
// options) triples with equal keys have equal RIBs for every destination.
// It covers no more than that either — a field New or propagate never
// looks at (a policy, a static route, a node's AS or role, a link's name)
// does not move the key. Adjacency order is covered by the link list:
// topo builds it from link ids and endpoints. So is the solver's variable
// order (topo.VarOrder: regions, names, endpoints, weights), which
// decides the shape of every condition Build exports: a carried memo is
// never paired with an order it was not built under.
func Key(net *topo.Network, configs []*config.Device, opts Options) string {
	h := sha256.New()
	var buf [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		num(uint64(len(s)))
		h.Write([]byte(s))
	}
	flag := func(b bool) {
		if b {
			num(1)
		} else {
			num(0)
		}
	}
	num(uint64(opts.K))
	flag(opts.PruneOverK)
	cfg := isisConfigs(net, configs)
	num(uint64(net.NumNodes()))
	for i, node := range net.Nodes() {
		str(node.Name)
		str(node.Region)
		c := cfg[i]
		flag(c.enabled)
		num(uint64(c.level))
		flag(c.penetrate)
		num(uint64(len(c.metrics)))
		for _, peer := range slices.Sorted(maps.Keys(c.metrics)) {
			str(peer)
			num(uint64(c.metrics[peer]))
		}
	}
	num(uint64(net.NumLinks()))
	for _, l := range net.Links() {
		num(uint64(l.A))
		num(uint64(l.B))
		num(uint64(l.Weight))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Memo is an immutable set of per-destination RIBs valid for one Key.
// Entry paths and stored conditions are shared read-only between the
// memo, every memo built from it and every seeded engine. A Memo is safe
// for concurrent use by many engines.
type Memo struct {
	key  string
	dsts map[topo.NodeID]*memoRIB
}

// memoRIB is one destination's RIB. A fixpoint the step cap cut off never
// becomes one: Build reports it instead, so nothing that outlives a sweep
// can hold a truncated RIB.
type memoRIB struct {
	nodes   []topo.NodeID
	entries [][]memoEntry   // parallel to nodes
	conds   *logic.Portable // one root per entry, in nodes × entries order
}

type memoEntry struct {
	weight uint32
	path   []topo.NodeID
	level  Level
}

// Key returns the fingerprint the memo is valid for.
func (m *Memo) Key() string { return m.key }

// NumDestinations reports how many destination RIBs the memo carries.
func (m *Memo) NumDestinations() int { return len(m.dsts) }

// Build returns a memo for (net, configs, opts) that holds every
// destination in dsts. have is a memo from earlier — the previous
// sweep's, another model's — or nil: when its key equals this one's, the
// result shares all its RIBs and only the destinations it lacks are
// propagated; otherwise it is ignored. Cold is have == nil.
//
// The missing destinations are propagated on up to `workers` goroutines
// (<= 0 means GOMAXPROCS), each goroutine keeping one factory under the
// network's variable order and recycling it before every destination
// (logic.Factory.Recycle), so each RIB is exported from an empty universe,
// and one engine, whose fixpoint buffers carry nothing from one
// destination to the next.
// A RIB's exported bytes therefore depend on that destination and on the
// key's inputs alone — not on which goroutine ran it, what ran before it,
// or what `have` already held — so the memo is byte-identical at every
// parallelism and a partly carried memo equals a cold one. Destinations
// are assigned statically (sorted, striped), never stolen, so the work
// each goroutine does is reproducible too.
//
// A destination whose fixpoint hit the step cap is left out of the memo
// and named in the error; the memo returned alongside is usable (engines
// propagate what it lacks themselves) but the caller should fail loudly.
func Build(net *topo.Network, configs []*config.Device, opts Options,
	dsts []topo.NodeID, have *Memo, workers int) (*Memo, error) {
	key := Key(net, configs, opts)
	var held map[topo.NodeID]*memoRIB
	if have != nil && have.key == key {
		held = have.dsts
	}
	var missing []topo.NodeID
	for _, dst := range dsts {
		if _, ok := held[dst]; !ok {
			missing = append(missing, dst)
		}
	}
	if len(missing) == 0 && held != nil {
		return have, nil
	}
	m := &Memo{key: key, dsts: map[topo.NodeID]*memoRIB{}}
	maps.Copy(m.dsts, held)
	slices.Sort(missing)
	missing = slices.Compact(missing)

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(missing))
	cfg := isisConfigs(net, configs)
	order := net.VarOrder()
	built := make([]*memoRIB, len(missing)) // nil where the cap cut the fixpoint off
	stripe := func(g int) {
		f := logic.NewFactoryOrdered(order)
		e := newEngine(net, cfg, f, opts) // its fixpoint state is reused across the stripe
		for i := g; i < len(missing); i += workers {
			f.Recycle()
			if rib, complete := e.propagate(missing[i]); complete {
				built[i] = e.export(rib)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stripe(g)
		}()
	}
	wg.Wait()
	var cut []string
	for i, dst := range missing {
		if built[i] == nil {
			cut = append(cut, net.Node(dst).Name)
			continue
		}
		m.dsts[dst] = built[i]
	}
	if cut != nil {
		return m, fmt.Errorf("igp: the fixpoint toward %s hit the step cap; the RIB is incomplete and was not memoized", strings.Join(cut, ", "))
	}
	return m, nil
}

// export lifts one propagated RIB out of the engine's factory.
func (e *Engine) export(rib map[topo.NodeID][]Entry) *memoRIB {
	mr := &memoRIB{nodes: slices.Sorted(maps.Keys(rib))}
	mr.entries = make([][]memoEntry, len(mr.nodes))
	var roots []logic.F
	for i, n := range mr.nodes {
		src := rib[n]
		out := make([]memoEntry, len(src))
		for j, ent := range src {
			out[j] = memoEntry{weight: ent.Weight, path: ent.Path, level: ent.Level}
			roots = append(roots, ent.Cond)
		}
		mr.entries[i] = out
	}
	mr.conds = e.f.Export(roots...)
	return mr
}

// Seed installs the memo as the read-through source of this engine's RIB
// lookups. A destination the memo holds is imported into e's factory on
// first use, that destination alone; any other is propagated locally. The
// memo must have been built for the engine's (net, configs, opts) — the
// caller pairs them (core.Shared does, by construction). Seeding after
// RIB calls is allowed: the local cache wins for destinations already
// computed.
func (e *Engine) Seed(m *Memo) { e.memo = m }

// Seeded returns the memo the engine reads through, nil when unseeded.
func (e *Engine) Seeded() *Memo { return e.memo }

// fromMemo materializes dst's RIB from the seeded memo, or reports that
// the memo does not hold it.
func (e *Engine) fromMemo(dst topo.NodeID) (map[topo.NodeID][]Entry, bool) {
	if e.memo == nil {
		return nil, false
	}
	mr, ok := e.memo.dsts[dst]
	if !ok {
		return nil, false
	}
	conds := mr.conds.Import(e.f)
	rib := make(map[topo.NodeID][]Entry, len(mr.nodes))
	for i, n := range mr.nodes {
		src := mr.entries[i]
		out := make([]Entry, len(src))
		for j, me := range src {
			out[j] = Entry{Weight: me.weight, Path: me.path, Cond: conds[0], Level: me.level}
			conds = conds[1:]
		}
		rib[n] = out
	}
	return rib, true
}
