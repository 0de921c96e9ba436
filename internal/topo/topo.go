// Package topo models the physical network: routers, links, the mapping
// from links to the boolean aliveness variables that topology conditions
// range over (link n up ⇔ logic.Var(n) true, as in Figure 4 of the
// paper), and the order a solver branches on those variables in
// (VarOrder), which is derived from regions and names, not from n.
package topo

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"hoyan/internal/logic"
	"hoyan/internal/netaddr"
)

// NodeID identifies a router within a Network.
type NodeID int32

// LinkID identifies a link within a Network, in AddLink order. The link's
// aliveness variable is logic.Var(LinkID): the id names the variable in
// every stored condition, failure set and wire message. It does not place
// the variable in the solver — VarOrder does.
type LinkID int32

// Invalid sentinel identifiers.
const (
	NoNode NodeID = -1
	NoLink LinkID = -1
)

// Role classifies a router's function on the WAN, mirroring the roles the
// paper discusses (provider edge, core, metro/MAN edge, external peer).
type Role string

// Router roles.
const (
	RolePE   Role = "pe"   // provider edge
	RoleCore Role = "core" // WAN backbone
	RoleMAN  Role = "man"  // metro edge connecting WAN and DCNs
	RolePeer Role = "peer" // external ISP / DCN gateway (different AS)
)

// Node is one router.
type Node struct {
	ID       NodeID
	Name     string
	AS       uint32
	Vendor   string // SKU vendor key into the behavior registry
	SKU      string
	Role     Role
	Region   string
	RouterID uint32 // BGP tie-break identifier
	Loopback netaddr.Prefix
	// Group names the redundancy group for the role-equivalence property
	// (§7.2): routers in the same group must build identical RIBs.
	Group string
}

// Link is an undirected physical link between two routers.
type Link struct {
	ID   LinkID
	A, B NodeID
	// Weight is the IS-IS metric of the link (both directions).
	Weight uint32
	// Name is a stable label like "r1~r2".
	Name string
}

// Adj is one adjacency in a node's neighbor list.
type Adj struct {
	Link LinkID
	Peer NodeID
}

// Network is a topology, built by AddNode and AddLink. Once anything else
// holds it (a core.Model, a result store, a caller) it is never edited in
// place, but cloned first, so holders share it and compare by identity.
type Network struct {
	nodes  []*Node
	links  []*Link
	byName map[string]NodeID
	adj    [][]Adj
	// order caches VarOrder; AddLink clears it.
	order atomic.Pointer[logic.Order]
}

// NewNetwork returns an empty topology.
func NewNetwork() *Network {
	return &Network{byName: make(map[string]NodeID)}
}

// AddNode registers a router and returns its ID. Names must be unique.
func (n *Network) AddNode(node Node) (NodeID, error) {
	if _, dup := n.byName[node.Name]; dup {
		return NoNode, fmt.Errorf("topo: duplicate node name %q", node.Name)
	}
	node.ID = NodeID(len(n.nodes))
	if node.RouterID == 0 {
		node.RouterID = uint32(node.ID) + 1
	}
	cp := node
	n.nodes = append(n.nodes, &cp)
	n.byName[node.Name] = cp.ID
	n.adj = append(n.adj, nil)
	return cp.ID, nil
}

// MustAddNode is AddNode for static construction in tests and generators.
func (n *Network) MustAddNode(node Node) NodeID {
	id, err := n.AddNode(node)
	if err != nil {
		panic(err)
	}
	return id
}

// AddLink connects two existing nodes and returns the link ID.
func (n *Network) AddLink(a, b NodeID, weight uint32) (LinkID, error) {
	if !n.valid(a) || !n.valid(b) {
		return NoLink, fmt.Errorf("topo: link endpoints %d,%d out of range", a, b)
	}
	if a == b {
		return NoLink, fmt.Errorf("topo: self-link on node %d", a)
	}
	if weight == 0 {
		weight = 10
	}
	id := LinkID(len(n.links))
	l := &Link{ID: id, A: a, B: b, Weight: weight,
		Name: n.nodes[a].Name + "~" + n.nodes[b].Name}
	n.links = append(n.links, l)
	n.adj[a] = append(n.adj[a], Adj{Link: id, Peer: b})
	n.adj[b] = append(n.adj[b], Adj{Link: id, Peer: a})
	n.order.Store(nil)
	return id, nil
}

// Clone copies the topology, node and link IDs included, for an edit
// that must not reach the holders of n.
func (n *Network) Clone() *Network { return n.Without(nil) }

// Without copies the topology minus the failed links. Node IDs are kept
// (nodes are added in the same order); the remaining links keep their
// order and are renumbered from 0.
func (n *Network) Without(failed FailureScenario) *Network {
	out := NewNetwork()
	for _, node := range n.nodes {
		out.MustAddNode(*node)
	}
	for _, l := range n.links {
		if !slices.Contains(failed, l.ID) {
			out.MustAddLink(l.A, l.B, l.Weight)
		}
	}
	return out
}

// MustAddLink is AddLink that panics on error.
func (n *Network) MustAddLink(a, b NodeID, weight uint32) LinkID {
	id, err := n.AddLink(a, b, weight)
	if err != nil {
		panic(err)
	}
	return id
}

func (n *Network) valid(id NodeID) bool { return id >= 0 && int(id) < len(n.nodes) }

// NumNodes reports the router count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumLinks reports the link count.
func (n *Network) NumLinks() int { return len(n.links) }

// Node returns the node by ID; it panics on invalid IDs (programmer error).
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Link returns the link by ID.
func (n *Network) Link(id LinkID) *Link { return n.links[id] }

// NodeByName resolves a router name.
func (n *Network) NodeByName(name string) (*Node, bool) {
	id, ok := n.byName[name]
	if !ok {
		return nil, false
	}
	return n.nodes[id], true
}

// Nodes returns all nodes in ID order.
func (n *Network) Nodes() []*Node { return n.nodes }

// Links returns all links in ID order.
func (n *Network) Links() []*Link { return n.links }

// Neighbors returns the adjacency list of a node.
func (n *Network) Neighbors(id NodeID) []Adj { return n.adj[id] }

// LinkBetween returns the first link connecting a and b.
func (n *Network) LinkBetween(a, b NodeID) (LinkID, bool) {
	for _, ad := range n.adj[a] {
		if ad.Peer == b {
			return ad.Link, true
		}
	}
	return NoLink, false
}

// AliveVar returns the logic variable whose truth means the link is up.
// Which variable a link gets says nothing about where the solver branches
// on it (VarOrder).
func (n *Network) AliveVar(l LinkID) logic.Var { return logic.Var(l) }

// NodeGroups returns the redundancy groups with at least two members,
// sorted by group name — the inputs to role-equivalence verification.
func (n *Network) NodeGroups() map[string][]NodeID {
	groups := map[string][]NodeID{}
	for _, node := range n.nodes {
		if node.Group != "" {
			groups[node.Group] = append(groups[node.Group], node.ID)
		}
	}
	for g, members := range groups {
		if len(members) < 2 {
			delete(groups, g)
		}
	}
	return groups
}

// FailureScenario is a concrete set of failed links.
type FailureScenario []LinkID

// Assignment converts the scenario into a logic assignment: failed links
// false, everything else defaulting to true.
func (fs FailureScenario) Assignment() logic.Assignment {
	asn := logic.Assignment{}
	for _, l := range fs {
		asn[logic.Var(l)] = false
	}
	return asn
}

// EnumerateFailures yields every failure scenario with exactly k failed
// links out of the network's links, in lexicographic order. This is the
// C(n,k) enumeration the Batfish-style baseline must pay.
func (n *Network) EnumerateFailures(k int, visit func(FailureScenario) bool) {
	total := len(n.links)
	if k < 0 || k > total {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	cur := make(FailureScenario, k)
	for {
		for i, v := range idx {
			cur[i] = LinkID(v)
		}
		if !visit(append(FailureScenario(nil), cur...)) {
			return
		}
		// Advance combination.
		i := k - 1
		for i >= 0 && idx[i] == total-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// NodeFailureLinks returns the links incident to a node: failing a router is
// modeled as failing all of its links, the standard reduction for the
// paper's "router and link failures".
func (n *Network) NodeFailureLinks(id NodeID) []LinkID {
	var out []LinkID
	for _, ad := range n.adj[id] {
		out = append(out, ad.Link)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConnectedUnder reports whether src can reach dst over alive links in the
// given assignment (failed links false). Used by tests and baselines as a
// ground-truth graph check.
func (n *Network) ConnectedUnder(src, dst NodeID, asn logic.Assignment) bool {
	if src == dst {
		return true
	}
	seen := make([]bool, len(n.nodes))
	stack := []NodeID{src}
	seen[src] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ad := range n.adj[cur] {
			if up, ok := asn[logic.Var(ad.Link)]; ok && !up {
				continue
			}
			if seen[ad.Peer] {
				continue
			}
			if ad.Peer == dst {
				return true
			}
			seen[ad.Peer] = true
			stack = append(stack, ad.Peer)
		}
	}
	return false
}
