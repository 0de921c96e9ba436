package core

import (
	"fmt"
	"sort"

	"hoyan/internal/netaddr"
	"hoyan/internal/topo"
)

// Partition cuts the assembled model at region boundaries for modular
// verification (ROADMAP item 3, after LIGHTYEAR's module cuts). The cut
// is a node mask per region: every node keeps its global ID,
// every condition still ranges over the global link-aliveness variables,
// and the IGP stays global — only BGP propagation is restricted to one
// region per pass, with routes crossing a cut carried by CutSummary
// messages instead of live sessions.
//
// A Partition is immutable and safe for concurrent use.
type Partition struct {
	regions    []string
	regionIdx  map[string]int
	nodeRegion []int // per NodeID; -1 when the node declares no region
}

// NewPartition derives the region partition of a model. It refuses —
// loudly, so the caller falls back to monolithic simulation — when any
// BGP-speaking node declares no region (the cut would be undefined for
// its sessions) or when fewer than two regions exist (nothing to cut).
func NewPartition(m *Model) (*Partition, error) {
	pt := &Partition{
		regionIdx:  map[string]int{},
		nodeRegion: make([]int, m.Net.NumNodes()),
	}
	seen := map[string]bool{}
	for _, node := range m.Net.Nodes() {
		if node.Region == "" && m.Configs[node.ID].BGP != nil {
			return nil, fmt.Errorf("core: modular cut undefined: BGP speaker %q has no region", node.Name)
		}
		if node.Region != "" && !seen[node.Region] {
			seen[node.Region] = true
			pt.regions = append(pt.regions, node.Region)
		}
	}
	if len(pt.regions) < 2 {
		return nil, fmt.Errorf("core: modular cut needs at least 2 regions, model has %d", len(pt.regions))
	}
	sort.Strings(pt.regions)
	for i, r := range pt.regions {
		pt.regionIdx[r] = i
	}
	for _, node := range m.Net.Nodes() {
		if node.Region == "" {
			pt.nodeRegion[node.ID] = -1
			continue
		}
		pt.nodeRegion[node.ID] = pt.regionIdx[node.Region]
	}
	return pt, nil
}

// NumRegions reports the number of regions in the partition.
func (pt *Partition) NumRegions() int { return len(pt.regions) }

// RegionName returns region i's name (regions are sorted by name).
func (pt *Partition) RegionName(i int) string { return pt.regions[i] }

// RegionOf returns the region index of a node, -1 when it has none.
func (pt *Partition) RegionOf(id topo.NodeID) int { return pt.nodeRegion[id] }

// RegionIndex returns the index of a region by name, -1 when the
// partition has no such region — the lookup a remote pass needs to map a
// wire-level region name back onto the partition.
func (pt *Partition) RegionIndex(name string) int {
	if i, ok := pt.regionIdx[name]; ok {
		return i
	}
	return -1
}

// FamilyHome returns the single region originating prefix p's family:
// the region of every node FamilyOrigins names. It refuses when the
// origins span regions (the summary cannot express a multi-homed cut
// soundly — the class falls back to monolithic simulation) or when
// nothing originates the family at all.
func (pt *Partition) FamilyHome(m *Model, p netaddr.Prefix) (int, error) {
	home := -1
	for _, id := range m.FamilyOrigins(p) {
		r := pt.nodeRegion[id]
		if r < 0 {
			return -1, fmt.Errorf("core: modular: %s originates in region-less node %q", p, m.Net.Node(id).Name)
		}
		if home >= 0 && home != r {
			return -1, fmt.Errorf("core: modular: family of %s originates in both %s and %s", p, pt.regions[home], pt.regions[r])
		}
		home = r
	}
	if home < 0 {
		return -1, fmt.Errorf("core: modular: nothing originates the family of %s", p)
	}
	return home, nil
}

// FamilyOrigins lists, in node order, every node holding a BGP origin or
// a static overlapping prefix p's family: the nodes whose regions decide
// the family's home (FamilyHome, and the vet analyzer predicting it).
func (m *Model) FamilyOrigins(p netaddr.Prefix) []topo.NodeID {
	family := m.PrefixFamily(p)
	overlaps := func(q netaddr.Prefix) bool {
		for _, fp := range family {
			if fp == q || fp.Overlaps(q) {
				return true
			}
		}
		return false
	}
	var out []topo.NodeID
	origins := m.Origins()
	for id := range m.Devices {
		related := false
		for _, r := range origins[id] {
			if overlaps(r.Prefix) {
				related = true
				break
			}
		}
		if !related {
			for _, sr := range m.Configs[id].Statics {
				if overlaps(sr.Prefix) {
					related = true
					break
				}
			}
		}
		if related {
			out = append(out, topo.NodeID(id))
		}
	}
	return out
}
