package lint

import (
	"go/ast"
	"go/types"
)

// FactoryMixAnalyzer flags logic.F formula references from one
// logic.Factory being used with another. F values are indices into one
// factory's hash-consed node arena: handing an F built by factory f2 to
// a method of f1 silently denotes a different formula (or indexes out of
// bounds), corrupting every downstream condition. Only logic.Portable
// snapshots may cross factories.
//
// The analysis is per-function and flow-insensitive in the small: it
// records, for each local variable of type logic.F, the factory object
// whose method call produced it (x := f.Var(v), y := f.And(a, b), or
// roots := p.Import(f) and p.ImportRoots(f, which)), then checks every factory method call argument
// and every F==F comparison for operands with conflicting origins.
// Values of unknown origin (parameters, struct fields, channel reads)
// are never flagged — the analyzer under-approximates rather than
// guesses.
var FactoryMixAnalyzer = &Analyzer{
	Name: "factorymix",
	Doc:  "flags logic.F values produced by one logic.Factory being used with a different factory",
	Run:  runFactoryMix,
}

func runFactoryMix(pass *Pass) error {
	// Never second-guess package logic itself: its internals manipulate
	// node indices directly.
	if pass.Pkg != nil && pass.Pkg.Name() == "logic" {
		return nil
	}
	for _, fd := range funcDecls(pass.Files) {
		checkFactoryMixFunc(pass, fd)
	}
	return nil
}

func isFactory(t types.Type) bool { return namedFrom(t, "logic", "Factory") }

// isF reports whether t is logic.F.
func isF(t types.Type) bool { return namedFrom(t, "logic", "F") }

// factoryOfCall returns the factory object a call pins its result to:
// the receiver of a *logic.Factory method (f.Var, f.And, ...) or the
// factory argument of Portable.Import(f) and Portable.ImportRoots(f, ...).
func factoryOfCall(info *types.Info, call *ast.CallExpr) types.Object {
	recv := methodRecv(call)
	if recv == nil {
		return nil
	}
	if isFactory(info.Types[recv].Type) {
		return rootObject(info, recv)
	}
	// p.Import(f), p.ImportRoots(f, which): the result is bound to f, not p.
	name := methodName(call)
	if namedFrom(info.Types[recv].Type, "logic", "Portable") && (name == "Import" || name == "ImportRoots") && len(call.Args) > 0 {
		if isFactory(info.Types[call.Args[0]].Type) {
			return rootObject(info, call.Args[0])
		}
	}
	return nil
}

func checkFactoryMixFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	// origin maps a local object (of type logic.F, or []logic.F from
	// Import) to the factory object that produced it.
	origin := map[types.Object]types.Object{}

	// originOf resolves an expression's factory, via the origin table
	// for identifiers and directly for factory-method call results.
	var originOf func(e ast.Expr) types.Object
	originOf = func(e ast.Expr) types.Object {
		switch x := e.(type) {
		case *ast.ParenExpr:
			return originOf(x.X)
		case *ast.Ident:
			return origin[objectOf(info, x)]
		case *ast.IndexExpr:
			// roots[i] inherits the origin of roots.
			return originOf(x.X)
		case *ast.CallExpr:
			return factoryOfCall(info, x)
		}
		return nil
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					id, ok := x.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := objectOf(info, id)
					if obj == nil {
						continue
					}
					if fac := originOf(x.Rhs[i]); fac != nil {
						origin[obj] = fac
					} else {
						delete(origin, obj)
					}
				}
			}
		case *ast.CallExpr:
			checkFactoryCallArgs(pass, info, x, originOf)
		case *ast.BinaryExpr:
			checkFormulaComparison(pass, info, x, originOf)
		}
		return true
	})
}

// checkFactoryCallArgs flags f1.Method(..., x, ...) where x is an F
// known to originate from a different factory.
func checkFactoryCallArgs(pass *Pass, info *types.Info, call *ast.CallExpr, originOf func(ast.Expr) types.Object) {
	recv := methodRecv(call)
	if recv == nil || !isFactory(info.Types[recv].Type) {
		return
	}
	recvObj := rootObject(info, recv)
	if recvObj == nil {
		return
	}
	for _, arg := range call.Args {
		if !isF(info.Types[arg].Type) {
			continue
		}
		if fac := originOf(arg); fac != nil && fac != recvObj {
			pass.Reportf(arg.Pos(),
				"logic.F built by factory %q passed to method of factory %q; formulas are factory-bound — cross with logic.Portable",
				fac.Name(), recvObj.Name())
		}
	}
}

// checkFormulaComparison flags x == y / x != y where the operands come
// from different factories: equal F indices in different arenas denote
// unrelated formulas, so the comparison is meaningless.
func checkFormulaComparison(pass *Pass, info *types.Info, be *ast.BinaryExpr, originOf func(ast.Expr) types.Object) {
	if be.Op.String() != "==" && be.Op.String() != "!=" {
		return
	}
	if !isF(info.Types[be.X].Type) || !isF(info.Types[be.Y].Type) {
		return
	}
	fx, fy := originOf(be.X), originOf(be.Y)
	if fx != nil && fy != nil && fx != fy {
		pass.Reportf(be.Pos(),
			"comparing logic.F values from factories %q and %q; equal indices in different arenas are unrelated formulas",
			fx.Name(), fy.Name())
	}
}
