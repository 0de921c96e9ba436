// Package factorymix is the golden fixture for the factorymix analyzer.
package factorymix

import "hoyanfix/logic"

func crossFactoryArgs() {
	a := logic.NewFactory()
	b := logic.NewFactory()
	x := a.Var(1)
	y := b.Var(1)
	_ = a.And(x, a.Var(2)) // allowed: same factory throughout
	_ = b.And(y, x)        // want "logic.F built by factory \"a\" passed to method of factory \"b\""
}

func crossFactoryCompare() bool {
	a := logic.NewFactory()
	b := logic.NewFactory()
	x := a.Var(1)
	y := b.Var(1)
	return x == y // want "comparing logic.F values from factories \"a\" and \"b\""
}

func portableCrossing() {
	a := logic.NewFactory()
	b := logic.NewFactory()
	x := a.Var(1)
	y := a.Export(x).Import(b) // allowed: Portable is the sanctioned carrier
	_ = b.And(y, b.Var(2))     // allowed: y now belongs to b
	z := a.Export(x).ImportRoots(b, []int{0})
	_ = a.And(z, x) // want "logic.F built by factory \"b\" passed to method of factory \"a\""
}

func unknownOrigin(a *logic.Factory, x logic.F) {
	_ = a.And(x, a.Var(1)) // allowed: parameter origin is unknown, never flagged
}
