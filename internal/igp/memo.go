// The IGP memo: every node's reachability condition toward each
// destination, computed once and read by every simulator of a sweep.
//
// Core reads the IGP through one function and one source: an iBGP
// session's condition is reach(a, b) ∧ reach(b, a) (Appendix C:
// "the topology condition of an iBGP session is a combination of the
// topology conditions of the IS-IS routes the session uses"), and every
// simulator takes both from its core.Shared's Memo. A Memo holds, per
// destination, one factory-independent logic.Portable with one root per
// node: that node's reachability condition toward the destination, built
// by Engine.reach. A simulator imports only
// the roots its sessions read (Memo.Reach) and propagates nothing for
// them. A destination whose fixpoint the step cap cut off is never a
// root: Build names it in its error, and a Shared built on that memo
// refuses to simulate.
//
// Identity: a Memo is valid for an igp.Key — a fingerprint of exactly
// what New and propagate read (node ids, names and regions; link ids,
// endpoints and weights; each node's IS-IS enabled/level/penetrate/metric
// overrides; Options) — not for a model. Two models that differ only in
// what the IGP never reads (policies, static routes, BGP neighbours,
// announced prefixes) have equal keys and share one memo, which is what
// lets a policy edit's resweep run no fixpoint at all. Nothing is ever
// invalidated in place: conditions are immutable, and a different key
// simply does not match.
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

	"hoyan/internal/config"
	"hoyan/internal/logic"
	"hoyan/internal/topo"
	"hoyan/internal/work"
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

// Memo is an immutable set of per-destination reachability conditions
// valid for one Key. It is safe for concurrent use by many factories.
type Memo struct {
	key string
	// dsts holds, per destination, root n: node n's reachability condition
	// toward it. A fixpoint the step cap cut off never becomes one: Build
	// reports it instead, so nothing that outlives a sweep can hold a
	// condition from a truncated RIB.
	dsts map[topo.NodeID]*logic.Portable
}

// Key returns the fingerprint the memo is valid for.
func (m *Memo) Key() string { return m.key }

// NumDestinations reports how many destinations the memo carries.
func (m *Memo) NumDestinations() int { return len(m.dsts) }

// Build returns a memo for (net, configs, opts) that holds every
// destination in dsts. have is a memo from earlier — the previous
// sweep's, another model's — or nil: when its key equals this one's, the
// result shares all its destinations and only those it lacks are
// propagated; otherwise it is ignored. Cold is have == nil.
//
// The missing destinations are propagated on up to `workers` goroutines
// (<= 0 means GOMAXPROCS) that take them from one queue (internal/work):
// a goroutine that finishes one takes the next, so none idles while
// another still has a share to run. Each goroutine keeps one factory
// under the network's variable order and recycles it before every
// destination (logic.Factory.Recycle), so each destination's conditions
// are exported from an empty universe, and one engine, whose fixpoint
// buffers carry nothing from one destination to the next.
// A destination's exported bytes therefore depend on it and on the
// key's inputs alone — not on which goroutine ran it, what ran before it,
// or what `have` already held — so the memo is byte-identical at every
// parallelism and a partly carried memo equals a cold one.
//
// A destination whose fixpoint hit the step cap is left out of the memo
// and named in the error. The memo returned alongside holds every other
// destination, and a later Build may start from it; a simulator may not
// read it (core.Shared.Err refuses every pass).
func Build(net *topo.Network, configs []*config.Device, opts Options,
	dsts []topo.NodeID, have *Memo, workers int) (*Memo, error) {
	key := Key(net, configs, opts)
	var held map[topo.NodeID]*logic.Portable
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
	m := &Memo{key: key, dsts: map[topo.NodeID]*logic.Portable{}}
	maps.Copy(m.dsts, held)
	slices.Sort(missing)
	missing = slices.Compact(missing)

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := isisConfigs(net, configs)
	order := net.VarOrder()
	built := make([]*logic.Portable, len(missing)) // nil where the cap cut the fixpoint off
	work.RunWith(len(missing), workers, nil, func() func(int) {
		f := logic.NewFactoryOrdered(order)
		e := newEngine(net, cfg, f, opts) // its fixpoint state is reused across the goroutine's destinations
		return func(i int) {
			f.Recycle()
			if e.propagate(missing[i]) {
				built[i] = e.export(missing[i])
			}
		}
	})
	var cut []string
	for i, dst := range missing {
		if built[i] == nil {
			cut = append(cut, net.Node(dst).Name)
			continue
		}
		m.dsts[dst] = built[i]
	}
	if cut != nil {
		return m, fmt.Errorf("igp: the fixpoint toward %s hit the step cap; its conditions are incomplete and were not memoized", strings.Join(cut, ", "))
	}
	return m, nil
}

// export lifts the fixpoint propagate just ran toward dst out of the
// engine's factory: root n is node n's reachability condition toward dst.
func (e *Engine) export(dst topo.NodeID) *logic.Portable {
	roots := make([]logic.F, e.net.NumNodes())
	for n := range roots {
		roots[n] = e.reach(topo.NodeID(n), dst)
	}
	return e.f.Export(roots...)
}

// Reach imports into f the reachability conditions toward dst of the
// nodes in from, one per node, in that order. The memo must hold dst:
// Build returned it without error for a set naming dst. Only what those conditions reach is rebuilt
// (logic.Portable.ImportRoots).
func (m *Memo) Reach(f *logic.Factory, dst topo.NodeID, from []topo.NodeID) []logic.F {
	which := make([]int, len(from))
	for i, n := range from {
		which[i] = int(n)
	}
	return m.dsts[dst].ImportRoots(f, which)
}
