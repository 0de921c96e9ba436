package topo

import (
	"math/rand"
	"slices"
	"testing"
)

// twoRegions is a small WAN with the shapes the order's rule names: two
// regions, two cores each, dual-homed PEs and MANs, a gateway behind the
// PEs, and two links between regions. twoRegionLinks names every link by
// its endpoints; twoRegions adds the links it is given in their order and
// orientation.
var twoRegionLinks = [][2]string{
	{"core-a-0", "core-a-1"}, {"pe-a-0", "core-a-0"}, {"pe-a-0", "core-a-1"},
	{"pe-a-1", "core-a-0"}, {"pe-a-1", "core-a-1"}, {"man-a-0", "core-a-0"}, {"man-a-0", "core-a-1"},
	{"gw-a-0", "pe-a-0"}, {"gw-a-0", "pe-a-1"},
	{"core-b-0", "core-b-1"}, {"pe-b-0", "core-b-0"}, {"pe-b-0", "core-b-1"},
	{"man-b-0", "core-b-0"}, {"man-b-0", "core-b-1"}, {"gw-b-0", "pe-b-0"},
	{"core-a-0", "core-b-0"}, {"core-a-1", "core-b-1"},
}

func twoRegions(links [][2]string) *Network {
	n := NewNetwork()
	for _, name := range []string{"core-a-0", "core-a-1", "pe-a-0", "pe-a-1", "man-a-0", "gw-a-0"} {
		n.MustAddNode(Node{Name: name, Region: "a"})
	}
	for _, name := range []string{"core-b-0", "core-b-1", "pe-b-0", "man-b-0", "gw-b-0"} {
		n.MustAddNode(Node{Name: name, Region: "b"})
	}
	for _, l := range links {
		a, _ := n.NodeByName(l[0])
		b, _ := n.NodeByName(l[1])
		n.MustAddLink(a.ID, b.ID, 10)
	}
	return n
}

// orderedPairs is the network's variable order as endpoint-name pairs,
// smaller name first: what the order is when link ids are forgotten.
func orderedPairs(n *Network) [][2]string {
	var out [][2]string
	for _, v := range n.VarOrder().Vars() {
		l := n.Link(LinkID(v))
		a, b := n.Node(l.A).Name, n.Node(l.B).Name
		out = append(out, [2]string{min(a, b), max(a, b)})
	}
	return out
}

func TestVarOrderRule(t *testing.T) {
	got := orderedPairs(twoRegions(twoRegionLinks))
	want := [][2]string{
		// Region a: owners by link count, then name — the gateway and the
		// MAN (2 links), the PEs (3), the cores' own link last.
		{"gw-a-0", "pe-a-0"}, {"gw-a-0", "pe-a-1"},
		{"core-a-0", "man-a-0"}, {"core-a-1", "man-a-0"},
		{"core-a-0", "pe-a-0"}, {"core-a-1", "pe-a-0"},
		{"core-a-0", "pe-a-1"}, {"core-a-1", "pe-a-1"},
		{"core-a-0", "core-a-1"},
		// What leaves region a, owned by the b cores (4 links against 5).
		{"core-a-0", "core-b-0"}, {"core-a-1", "core-b-1"},
		// Region b.
		{"gw-b-0", "pe-b-0"},
		{"core-b-0", "man-b-0"}, {"core-b-1", "man-b-0"},
		{"core-b-0", "pe-b-0"}, {"core-b-1", "pe-b-0"},
		{"core-b-0", "core-b-1"},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("order:\n got %v\nwant %v", got, want)
	}
}

// TestVarOrderIgnoresFileOrder: the order is a function of structure and
// names. However AddLink is called — any sequence, either endpoint first —
// the same links land on the same levels.
func TestVarOrderIgnoresFileOrder(t *testing.T) {
	want := orderedPairs(twoRegions(twoRegionLinks))
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 20; round++ {
		links := slices.Clone(twoRegionLinks)
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		for i := range links {
			if rng.Intn(2) == 0 {
				links[i][0], links[i][1] = links[i][1], links[i][0]
			}
		}
		if got := orderedPairs(twoRegions(links)); !slices.Equal(got, want) {
			t.Fatalf("round %d: links added as %v order as\n got %v\nwant %v", round, links, got, want)
		}
	}
}

// TestVarOrderFollowsAddLink: the order is cached, and a link added
// afterwards gets a level — a factory made from the stale order would
// branch on the new variable after every other.
func TestVarOrderFollowsAddLink(t *testing.T) {
	n := twoRegions(twoRegionLinks)
	before := n.VarOrder()
	if n.VarOrder() != before {
		t.Fatal("VarOrder recomputed an unchanged network's order")
	}
	a, _ := n.NodeByName("gw-b-0")
	b, _ := n.NodeByName("core-b-1")
	id := n.MustAddLink(a.ID, b.ID, 10)
	vars := n.VarOrder().Vars()
	if len(vars) != n.NumLinks() {
		t.Fatalf("%d variables ordered, %d links", len(vars), n.NumLinks())
	}
	// gw-b-0 now owns two links; they lead region b.
	if at := slices.Index(vars, n.AliveVar(id)); at != 11 {
		t.Fatalf("the new gw-b-0~core-b-1 link is at level %d, want 11 (first of region b)", at)
	}
}
