package vet

import (
	"sort"

	"hoyan/internal/core"
	"hoyan/internal/topo"
)

// index is the shared static view the analyzers of one Run consult:
// the model's session table (core.Model.Sessions: configuration and
// topology provenance, no simulator is built) with per-node adjacency,
// and the iBGP speaker sets grouped by AS.
type index struct {
	m        *core.Model
	sessions []core.Session
	byFrom   [][]int // outgoing session indices per node
	byTo     [][]int // incoming session indices per node

	// speakerAS lists the distinct AS numbers with >=2 BGP speakers,
	// sorted; speakers[as] are their node IDs in ID order.
	speakerAS []uint32
	speakers  map[uint32][]topo.NodeID
}

// buildIndex indexes the model's session table. Node iteration order is
// the deterministic topo order, so session indices are stable.
func buildIndex(m *core.Model) *index {
	ix := &index{
		m:        m,
		sessions: m.Sessions(),
		byFrom:   make([][]int, m.Net.NumNodes()),
		byTo:     make([][]int, m.Net.NumNodes()),
		speakers: map[uint32][]topo.NodeID{},
	}
	for si, se := range ix.sessions {
		ix.byFrom[se.From] = append(ix.byFrom[se.From], si)
		ix.byTo[se.To] = append(ix.byTo[se.To], si)
	}
	for _, node := range m.Net.Nodes() {
		if cfg := m.Configs[node.ID]; cfg.BGP != nil {
			ix.speakers[cfg.BGP.AS] = append(ix.speakers[cfg.BGP.AS], node.ID)
		}
	}
	for as, ids := range ix.speakers {
		if len(ids) >= 2 {
			ix.speakerAS = append(ix.speakerAS, as)
		}
	}
	sort.Slice(ix.speakerAS, func(i, j int) bool { return ix.speakerAS[i] < ix.speakerAS[j] })
	return ix
}

// region returns a node's region name.
func (ix *index) region(id topo.NodeID) string { return ix.m.Net.Node(id).Region }

// name returns a node's router name.
func (ix *index) name(id topo.NodeID) string { return ix.m.Net.Node(id).Name }
