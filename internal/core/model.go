// Package core implements Hoyan's primary contribution: the global
// simulation with local formal modeling of §5. Route propagation is
// simulated across the whole network while every route update and RIB rule
// carries a topology condition — a boolean formula over link-aliveness
// variables — so that k-failure reachability reduces to small per-prefix
// formula queries instead of C(n,k) re-simulations.
//
// The propagation engine is a worklist fixpoint over per-session
// contributions. A session's contribution is recomputed from the sender's
// ranked RIB with exclusive guards (¬R(r1)∧…∧¬R(r_{i-1})∧R(r_i), §5.4) and
// replaces the previous contribution wholesale; this implements the effect
// of Algorithm 1's withdraw()-based handling of "late higher priority
// routes" — a newly arrived better route re-guards and re-announces every
// lower-ranked alternative — without tracking an explicit propagation
// tree. §5.6's validity argument for pruning under amendment applies
// unchanged: amendments only strengthen conditions, so pruned branches
// stay pruned.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hoyan/internal/behavior"
	"hoyan/internal/config"
	"hoyan/internal/igp"
	"hoyan/internal/netaddr"
	"hoyan/internal/route"
	"hoyan/internal/topo"
)

// Model is the assembled network model (§4.2): behavior models of every
// device wired together by the topology. A Model is immutable after
// Assemble and safe for concurrent use by any number of simulators —
// the sweep engine builds one Model per run and shares it across all
// worker goroutines (see Shared).
type Model struct {
	Net     *topo.Network
	Devices []*behavior.Device // indexed by NodeID
	Configs []*config.Device   // indexed by NodeID

	// origins caches per-device OriginatedBGP results (read-only routes,
	// indexed by NodeID). Computed once on first use; consumers must not
	// mutate the returned routes (behavior pipelines Clone before edits).
	originsOnce sync.Once
	origins     [][]route.Route

	// classesOnce/classes cache the prefix behavior-class partition
	// (classes.go), computed once on first use like origins.
	classesOnce sync.Once
	classes     []PrefixClass

	// sessionsOnce/sessions cache the BGP session table (Sessions),
	// computed once on first use like origins.
	sessionsOnce sync.Once
	sessions     []Session

	// partitionOnce/partition/partitionErr cache the region partition
	// (partition.go), computed once on first use like origins.
	partitionOnce sync.Once
	partition     *Partition
	partitionErr  error
}

// assembleCalls counts Assemble invocations process-wide. Tests use it
// to assert the sweep engine assembles exactly one model per run.
var assembleCalls atomic.Int64

// AssembleCalls reports how many times Assemble has run in this process.
func AssembleCalls() int64 { return assembleCalls.Load() }

// Assemble binds configurations to topology nodes under the behavior
// profiles of reg. Every node must have a configuration whose hostname
// matches its node name.
func Assemble(net *topo.Network, snap config.Snapshot, reg *behavior.Registry) (*Model, error) {
	assembleCalls.Add(1)
	m := &Model{
		Net:     net,
		Devices: make([]*behavior.Device, net.NumNodes()),
		Configs: make([]*config.Device, net.NumNodes()),
	}
	namer := func(id topo.NodeID) string { return net.Node(id).Name }
	for _, node := range net.Nodes() {
		cfg, ok := snap[node.Name]
		if !ok {
			return nil, fmt.Errorf("core: no configuration for node %q", node.Name)
		}
		if cfg.Hostname != node.Name {
			return nil, fmt.Errorf("core: config hostname %q bound to node %q", cfg.Hostname, node.Name)
		}
		vendor := cfg.Vendor
		if vendor == "" {
			vendor = node.Vendor
		}
		dev := behavior.New(node, cfg, reg.Get(vendor))
		dev.NodeNamer = namer
		m.Devices[node.ID] = dev
		m.Configs[node.ID] = cfg
	}
	return m, nil
}

// Resolve maps a router name to its node ID.
func (m *Model) Resolve(name string) (topo.NodeID, bool) {
	n, ok := m.Net.NodeByName(name)
	if !ok {
		return topo.NoNode, false
	}
	return n.ID, true
}

// Origins returns the cached per-node BGP origination lists (network
// statements and redistributed statics), computed once per Model. The
// routes are shared read-only: callers must copy before mutating.
func (m *Model) Origins() [][]route.Route {
	m.originsOnce.Do(func() {
		resolve := m.resolveFn()
		m.origins = make([][]route.Route, len(m.Devices))
		for id, dev := range m.Devices {
			m.origins[id] = dev.OriginatedBGP(resolve)
		}
	})
	return m.origins
}

// AnnouncersOf returns the nodes that originate a BGP route for (or an
// aggregate covering) the prefix: network statements and redistributed
// statics.
func (m *Model) AnnouncersOf(p netaddr.Prefix) []topo.NodeID {
	var out []topo.NodeID
	for id, routes := range m.Origins() {
		for _, r := range routes {
			if r.Prefix == p || r.Prefix.Covers(p) {
				out = append(out, topo.NodeID(id))
				break
			}
		}
	}
	return out
}

// AnnouncedPrefixes returns every prefix originated anywhere on the
// network (exact network statements and redistributed statics), sorted by
// the trie walk order. This is the per-prefix work list of a full-WAN
// verification run.
func (m *Model) AnnouncedPrefixes() []netaddr.Prefix {
	var trie netaddr.Trie[bool]
	for _, routes := range m.Origins() {
		for _, r := range routes {
			trie.Insert(r.Prefix, true)
		}
	}
	return trie.Prefixes()
}

func (m *Model) resolveFn() func(string) (topo.NodeID, bool) {
	return func(name string) (topo.NodeID, bool) { return m.Resolve(name) }
}

// PrefixFamily returns the set of prefixes that must be co-simulated with
// p: p itself plus, for every configured aggregate covering p, the
// aggregate and all of its components (§5.3 route aggregation couples
// their conditions).
func (m *Model) PrefixFamily(p netaddr.Prefix) []netaddr.Prefix {
	seen := map[netaddr.Prefix]bool{p: true}
	out := []netaddr.Prefix{p}
	for _, cfg := range m.Configs {
		if cfg.BGP == nil {
			continue
		}
		for _, agg := range cfg.BGP.Aggregates {
			related := agg.Prefix == p || agg.Prefix.Covers(p)
			for _, c := range agg.Components {
				if c == p {
					related = true
				}
			}
			if !related {
				continue
			}
			for _, q := range append([]netaddr.Prefix{agg.Prefix}, agg.Components...) {
				if !seen[q] {
					seen[q] = true
					out = append(out, q)
				}
			}
		}
	}
	return out
}

// igpOptions derives IGP propagation options from simulation options.
func igpOptions(o Options) igp.Options {
	return igp.Options{K: o.K, PruneOverK: o.PruneOverK}
}
