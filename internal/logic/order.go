package logic

import "fmt"

// Order is a BDD variable order: which variable a factory's solver
// branches on first, second, and so on. The size of every BDD a factory
// builds depends on it, and nothing else does: an order changes no
// answer (SAT, MinFalse, MinFailuresToViolate, Equivalent), only how many
// nodes the answer costs and the shape of what Simplify extracts.
//
// An Order places the variables 0..n-1; a variable past its table keeps
// its natural place after them (level = variable), so indicator and
// router-up variables allocated above the links need no entry. The order
// with no table at all is the natural order. An Order is immutable and
// may be shared by any number of factories.
type Order struct {
	level []Var // level[v] is where variable v sits, 0 on top
	at    []Var // at[l] is the variable at level l: level's inverse
}

// natural is the order of a factory that was given none.
var natural = &Order{}

// NewOrder returns the order that branches on vars[0] first, vars[1]
// second, and so on. vars must be a permutation of 0..len(vars)-1 —
// anything else would put two variables on one level — and NewOrder
// panics when it is not: orders are computed, never read from input.
func NewOrder(vars []Var) *Order {
	o := &Order{level: make([]Var, len(vars)), at: append([]Var(nil), vars...)}
	for i := range o.level {
		o.level[i] = -1
	}
	for l, v := range vars {
		if uint(v) >= uint(len(vars)) || o.level[v] >= 0 {
			panic(fmt.Sprintf("logic: NewOrder: variable %d at level %d: not a permutation of 0..%d", v, l, len(vars)-1))
		}
		o.level[v] = Var(l)
	}
	return o
}

// Vars returns the ordered variables, top level first.
func (o *Order) Vars() []Var { return append([]Var(nil), o.at...) }

// levelOf is where build places variable v.
func (o *Order) levelOf(v Var) Var {
	if uint(v) < uint(len(o.level)) {
		return o.level[v]
	}
	return v
}

// varAt is the variable a BDD node at level l branches on.
func (o *Order) varAt(l Var) Var {
	if uint(l) < uint(len(o.at)) {
		return o.at[l]
	}
	return l
}
