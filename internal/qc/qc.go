// Package qc is the query compiler: it turns the logic.Portable
// condition DAGs a ResultStore persists into flat, cache-friendly
// programs a serving process can evaluate in a few hundred nanoseconds,
// with zero allocation per query.
//
// The sweep pipeline answers "is this route present under failure set F"
// by simulating; the query plane answers it by *evaluating* the stored
// topology condition — one amortized sweep serving unbounded cheap
// queries (DESIGN.md, "Query plane"). Compilation happens once per
// published snapshot: each Portable root becomes a Program whose
// instructions are the reachable sub-DAG in dependency order, renumbered
// densely, so evaluation is a single forward pass over a contiguous
// array with no pointers, no interning, and no per-query allocation.
// Nothing is solved here: the fixed answers (all-links-up reachability,
// min failures) are the verdicts the sweep already stored in the record.
//
// The stored conditions were computed under the sweep's failure budget K
// (routes whose conditions require more than K failures are pruned, §5.6
// of the paper), so evaluation is exact for failure sets of at most K
// links; callers must reject larger sets.
package qc

import (
	"fmt"
	"slices"

	"hoyan/internal/logic"
)

// Opcodes of a compiled program. Operand slots a and b reference earlier
// instructions; opVar's v is the link-aliveness variable (logic.Var of
// the baseline topology's LinkID).
const (
	opFalse uint8 = iota
	opTrue
	opVar
	opNot
	opAnd
	opOr
)

// instr is one flat program step. 16 bytes, no pointers: the whole
// program of a typical class condition fits in a few cache lines.
type instr struct {
	op   uint8
	v    logic.Var // opVar only
	a, b int32     // operand instruction indices
}

// Program is one compiled condition: the reachable DAG of a single
// Portable root in dependency order. The last instruction is the root.
// Programs are immutable after Compile and safe for concurrent Eval with
// distinct Scratch values.
type Program struct {
	ins  []instr
	vars []logic.Var // sorted distinct variables the condition mentions
}

// NumInstrs reports the program length (scratch sizing, stats).
func (p *Program) NumInstrs() int { return len(p.ins) }

// Vars returns the sorted distinct variables the condition mentions —
// the reverse-index feed: a link's death can only affect conditions that
// mention its variable.
func (p *Program) Vars() []logic.Var { return p.vars }

// FailureSet is a bitset of failed links indexed by logic.Var. The zero
// value is the all-links-up scenario; Reset recycles it without
// reallocating.
type FailureSet struct {
	bits []uint64
	n    int
}

// NewFailureSet returns a set sized for variables 0..maxVar.
func NewFailureSet(maxVar logic.Var) *FailureSet {
	return &FailureSet{bits: make([]uint64, int(maxVar)/64+1)}
}

// Reset clears the set for reuse.
func (fs *FailureSet) Reset() {
	for i := range fs.bits {
		fs.bits[i] = 0
	}
	fs.n = 0
}

// Add marks a link failed, growing the bitset if needed.
func (fs *FailureSet) Add(v logic.Var) {
	if v < 0 {
		return
	}
	w := int(v) >> 6
	for w >= len(fs.bits) {
		fs.bits = append(fs.bits, 0)
	}
	bit := uint64(1) << (uint(v) & 63)
	if fs.bits[w]&bit == 0 {
		fs.bits[w] |= bit
		fs.n++
	}
}

// Len reports how many links are failed.
func (fs *FailureSet) Len() int { return fs.n }

// Has reports whether link v is failed. Variables beyond the set are up.
//
//hoyan:hotpath
func (fs *FailureSet) Has(v logic.Var) bool {
	w := int(v) >> 6
	return w < len(fs.bits) && fs.bits[w]>>(uint(v)&63)&1 == 1
}

// Scratch holds the per-evaluation value array. One Scratch serves any
// number of sequential Eval calls over programs of any size (it grows to
// the largest seen and stays warm); it must not be shared concurrently.
type Scratch struct {
	vals []bool
}

// ensure sizes the value array for n instructions. Runs outside the
// annotated hot path so Eval itself never allocates once warm.
func (s *Scratch) ensure(n int) {
	if cap(s.vals) < n {
		s.vals = make([]bool, n)
	}
	s.vals = s.vals[:n]
}

// Eval evaluates the condition under the failure set: a variable is true
// while its link is not failed, matching logic.Assignment's "up unless
// failed" convention. One forward pass over the instruction array
// (operands always reference earlier slots, so no recursion and no
// stack).
//
//hoyan:hotpath
func (p *Program) Eval(failed *FailureSet, s *Scratch) bool {
	s.ensure(len(p.ins))
	vals := s.vals
	for i := 0; i < len(p.ins); i++ {
		ins := &p.ins[i]
		var r bool
		switch ins.op {
		case opTrue:
			r = true
		case opVar:
			r = !failed.Has(ins.v)
		case opNot:
			r = !vals[ins.a]
		case opAnd:
			r = vals[ins.a] && vals[ins.b]
		case opOr:
			r = vals[ins.a] || vals[ins.b]
		}
		vals[i] = r
	}
	return vals[len(vals)-1]
}

// CompileRoot compiles the root-th formula of the snapshot into a
// Program. Only the nodes reachable from that root are emitted (the
// snapshot may carry many roots with shared structure; each compiled
// program is dense over its own sub-DAG so evaluation never touches
// another root's nodes). maxVar bounds the variable universe: a
// condition mentioning a variable beyond it is refused, which is how the
// store compiler rejects conditions that are not pure link conditions.
// maxVar < 0 disables the check.
func CompileRoot(p *logic.Portable, root int, maxVar logic.Var) (*Program, error) {
	return newCompiler(p, maxVar).compile(root)
}

// compiler lowers the roots of one snapshot. The two per-node work
// arrays are its own and are reused from root to root, so compiling the
// hundreds of roots of a class record allocates the programs and nothing
// else: a publish runs on the heap a sweep has just left, and whatever it
// allocates and drops there decides how many collections fall inside it
// (DESIGN.md, "A publish allocates what it keeps").
type compiler struct {
	p      *logic.Portable
	maxVar logic.Var
	reach  []bool  // by snapshot node: reachable from the current root
	remap  []int32 // by snapshot node: its instruction in the current program
}

func newCompiler(p *logic.Portable, maxVar logic.Var) *compiler {
	n := p.NumNodes()
	return &compiler{p: p, maxVar: maxVar, reach: make([]bool, n), remap: make([]int32, n)}
}

func (c *compiler) compile(root int) (*Program, error) {
	p := c.p
	if root < 0 || root >= p.NumRoots() {
		return nil, fmt.Errorf("qc: root %d out of range (snapshot has %d)", root, p.NumRoots())
	}
	// Mark the reachable sub-DAG. Children precede parents, so one
	// reverse pass from the root settles reachability; nothing above the
	// root is reachable from it.
	reach, remap := c.reach, c.remap
	clear(reach)
	top := p.Root(root)
	reach[top] = true
	size := 0
	for i := top; i >= 0; i-- {
		if !reach[i] {
			continue
		}
		size++
		s := p.NodeShape(i)
		switch s.Kind {
		case logic.WalkNot:
			reach[s.A] = true
		case logic.WalkAnd, logic.WalkOr:
			reach[s.A] = true
			reach[s.B] = true
		}
	}

	// remap needs no clearing: an operand is reachable, so its slot was
	// written earlier in this same pass.
	prog := &Program{ins: make([]instr, 0, size)}
	emit := func(ins instr) int32 {
		prog.ins = append(prog.ins, ins)
		return int32(len(prog.ins) - 1)
	}
	for i := 0; i <= top; i++ {
		if !reach[i] {
			continue
		}
		s := p.NodeShape(i)
		switch s.Kind {
		case logic.WalkConst:
			op := opFalse
			if s.Value {
				op = opTrue
			}
			remap[i] = emit(instr{op: op})
		case logic.WalkVar:
			if s.Variable < 0 || (c.maxVar >= 0 && s.Variable > c.maxVar) {
				return nil, fmt.Errorf("qc: condition mentions variable %d outside the link universe [0,%d]", s.Variable, c.maxVar)
			}
			remap[i] = emit(instr{op: opVar, v: s.Variable})
			prog.vars = append(prog.vars, s.Variable)
		case logic.WalkNot:
			remap[i] = emit(instr{op: opNot, a: remap[s.A]})
		case logic.WalkAnd:
			remap[i] = emit(instr{op: opAnd, a: remap[s.A], b: remap[s.B]})
		case logic.WalkOr:
			remap[i] = emit(instr{op: opOr, a: remap[s.A], b: remap[s.B]})
		default:
			return nil, fmt.Errorf("qc: node %d has unknown kind", i)
		}
	}
	// An exported snapshot holds each variable once; a decoded one may not.
	slices.Sort(prog.vars)
	prog.vars = slices.Compact(prog.vars)
	return prog, nil
}
