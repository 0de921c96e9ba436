package logic

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Portable is a factory-independent snapshot of one or more formulas.
// It stores the reachable DAG in dependency order, so the same
// conditions can be rebuilt inside any Factory, all of them (Import) or
// a chosen few (ImportRoots): the IGP memo holds one per destination with
// a root per node, and a simulator imports the roots its sessions read
// (DESIGN.md, "Sweep engine").
//
// A Portable is immutable after Export and safe for concurrent imports
// into distinct factories.
type Portable struct {
	nodes []pnode
	roots []int32
}

// pnode mirrors node but its children reference indices within the
// Portable's own node slice (0 = False, 1 = True), not any factory.
type pnode struct {
	k    kind
	v    Var
	a, b int32
}

// Export encodes the formulas rooted at roots. Shared subterms are
// stored once; the i-th exported root corresponds to the i-th formula
// returned by Import.
func (f *Factory) Export(roots ...F) *Portable {
	p := &Portable{nodes: make([]pnode, 2, 2+len(roots))}
	p.nodes[False] = pnode{k: kConst}
	p.nodes[True] = pnode{k: kConst}
	memo := make(map[F]int32, 2*len(roots)+16)
	memo[False] = 0
	memo[True] = 1
	var rec func(F) int32
	rec = func(x F) int32 {
		if id, ok := memo[x]; ok {
			return id
		}
		n := f.nodes[x]
		var nd pnode
		switch n.k {
		case kVar:
			nd = pnode{k: kVar, v: n.v}
		case kNot:
			nd = pnode{k: kNot, a: rec(n.a)}
		default: // kAnd, kOr
			nd = pnode{k: n.k, a: rec(n.a), b: rec(n.b)}
		}
		id := int32(len(p.nodes))
		p.nodes = append(p.nodes, nd)
		memo[x] = id
		return id
	}
	p.roots = make([]int32, len(roots))
	for i, r := range roots {
		p.roots[i] = rec(r)
	}
	return p
}

// NumRoots reports how many formulas the snapshot carries.
func (p *Portable) NumRoots() int { return len(p.roots) }

// NumNodes reports the size of the stored DAG including the constants.
func (p *Portable) NumNodes() int { return len(p.nodes) }

// Root returns the node index of the i-th exported root.
func (p *Portable) Root(i int) int { return int(p.roots[i]) }

// NodeShape describes stored node i for external compilers (the query
// compiler in internal/qc evaluates snapshots without rebuilding them in
// a Factory). Unlike Factory.Shape, the returned Shape's A and B are
// indices into the Portable's own node array (0 = False, 1 = True), not
// factory references; nodes are stored in dependency order, so children
// always precede their parents.
func (p *Portable) NodeShape(i int) Shape {
	n := p.nodes[i]
	switch n.k {
	case kConst:
		return Shape{Kind: WalkConst, Value: i == int(True)}
	case kVar:
		return Shape{Kind: WalkVar, Variable: n.v}
	case kNot:
		return Shape{Kind: WalkNot, A: F(n.a)}
	case kAnd:
		return Shape{Kind: WalkAnd, A: F(n.a), B: F(n.b)}
	default:
		return Shape{Kind: WalkOr, A: F(n.a), B: F(n.b)}
	}
}

// Import rebuilds the snapshot inside f and returns one F per exported
// root, in Export order: ImportRoots over every root.
func (p *Portable) Import(f *Factory) []F {
	all := make([]int, len(p.roots))
	for i := range all {
		all[i] = i
	}
	return p.ImportRoots(f, all)
}

// ImportRoots rebuilds the roots named by which (indices into Export's
// roots) inside f, one F per entry of which, building only the nodes they
// reach. Reconstruction goes through the ordinary constructors, so
// hash-consing and the local simplifications apply: importing into the
// factory that exported the snapshot yields formulas equivalent to the
// originals, and importing twice is idempotent.
func (p *Portable) ImportRoots(f *Factory, which []int) []F {
	// Children precede their parents, so one backward sweep marks every
	// node a named root reaches.
	need := make([]bool, len(p.nodes))
	for _, r := range which {
		need[p.roots[r]] = true
	}
	for i := len(p.nodes) - 1; i >= 2; i-- {
		if !need[i] {
			continue
		}
		switch n := p.nodes[i]; n.k {
		case kNot:
			need[n.a] = true
		case kAnd, kOr:
			need[n.a], need[n.b] = true, true
		}
	}
	ids := make([]F, len(p.nodes))
	ids[False] = False
	ids[True] = True
	for i := 2; i < len(p.nodes); i++ {
		if !need[i] {
			continue
		}
		n := p.nodes[i]
		switch n.k {
		case kVar:
			ids[i] = f.Var(n.v)
		case kNot:
			ids[i] = f.Not(ids[n.a])
		case kAnd:
			ids[i] = f.And(ids[n.a], ids[n.b])
		default:
			ids[i] = f.Or(ids[n.a], ids[n.b])
		}
	}
	out := make([]F, len(which))
	for i, r := range which {
		out[i] = ids[p.roots[r]]
	}
	return out
}

// portableJSON is the wire form of a Portable: the non-constant nodes as
// [kind, var, a, b] quadruples (indices 0 and 1, the constants, are
// implicit) plus the root indices. Used by the incremental result store
// to persist reachability conditions across processes.
type portableJSON struct {
	Nodes [][4]int32 `json:"n"`
	Roots []int32    `json:"r"`
}

// MarshalJSON encodes the snapshot for persistence: AppendJSON into a
// buffer of about the right size.
func (p *Portable) MarshalJSON() ([]byte, error) {
	return p.AppendJSON(make([]byte, 0, 20*len(p.nodes)+8*len(p.roots)+16)), nil
}

// AppendJSON appends the snapshot's wire form to b and returns the
// extended buffer: the bytes encoding/json would write for a
// portableJSON, compact, appended by hand. It is the one writer of the
// wire form. The reflective encoder needs a second copy of every node and
// spends more on these integer quadruples than the rest of a store's Save
// put together; a caller that writes the bytes itself (ResultStore.Save)
// also skips the validation pass encoding/json runs over a Marshaler's
// output.
func (p *Portable) AppendJSON(b []byte) []byte {
	b = append(b, `{"n":[`...)
	for i, n := range p.nodes[2:] {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(n.k), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(n.v), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(n.a), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(n.b), 10)
		b = append(b, ']')
	}
	b = append(b, `],"r":`...)
	if p.roots == nil {
		return append(b, `null}`...)
	}
	b = append(b, '[')
	for i, r := range p.roots {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(r), 10)
	}
	return append(b, `]}`...)
}

// UnmarshalJSON decodes a snapshot produced by MarshalJSON, validating
// node kinds and child indices so a corrupted store cannot produce an
// out-of-bounds Import.
func (p *Portable) UnmarshalJSON(data []byte) error {
	var w portableJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	nodes := make([]pnode, 2, 2+len(w.Nodes))
	nodes[False] = pnode{k: kConst}
	nodes[True] = pnode{k: kConst}
	for i, q := range w.Nodes {
		self := int32(2 + i)
		n := pnode{k: kind(q[0]), v: Var(q[1]), a: q[2], b: q[3]}
		child := func(c int32) bool { return c >= 0 && c < self }
		switch n.k {
		case kVar:
			// A negative variable would index Factory.Var's cache out of
			// bounds on Import; no encoder ever writes one.
			if n.v < 0 {
				return fmt.Errorf("logic: portable node %d: bad variable %d", self, n.v)
			}
			n.a, n.b = 0, 0
		case kNot:
			if !child(n.a) {
				return fmt.Errorf("logic: portable node %d: bad child %d", self, n.a)
			}
			n.b = 0
		case kAnd, kOr:
			if !child(n.a) || !child(n.b) {
				return fmt.Errorf("logic: portable node %d: bad children %d,%d", self, n.a, n.b)
			}
		default:
			return fmt.Errorf("logic: portable node %d: bad kind %d", self, n.k)
		}
		nodes = append(nodes, n)
	}
	for _, r := range w.Roots {
		if r < 0 || int(r) >= len(nodes) {
			return fmt.Errorf("logic: portable root %d out of range", r)
		}
	}
	p.nodes = nodes
	p.roots = w.Roots
	return nil
}
