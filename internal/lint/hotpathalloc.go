package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathAllocAnalyzer enforces the `//hoyan:hotpath` annotation:
// functions so marked (BDD apply/mk, hash-cons probes, engine inner
// loops) must not contain allocation-causing constructs, nor closures. The check is
// per-function and non-transitive — annotate the whole call tree where
// the budget matters; the AllocsPerRun tests in internal/logic keep the
// annotation and the measured budget in agreement.
//
// Flagged inside an annotated function:
//
//   - any fmt.* call (formatting allocates and convinces arguments to
//     escape);
//   - map or chan creation: map literals, make(map...), make(chan...);
//   - func literals, wherever they appear: one that escapes allocates,
//     and one handed straight to a callee allocates nothing but makes the
//     callee call back through a value the compiler does not inline — per
//     slot probed, that was 5–7 % of a sweep in the BDD unique table;
//   - append to a plain local slice. Appends to struct fields
//     (s.nodes = append(s.nodes, ...)) are the arena/scratch-table
//     pattern with amortized growth and stay allowed, as do locals whose
//     name contains "scratch" or that were initialized by reslicing a
//     field (buf := s.sc.buf[:0]);
//   - implicit conversion of a concrete value to an interface type in
//     call arguments or returns (the boxing allocates).
var HotPathAllocAnalyzer = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "flags allocation-causing constructs inside functions annotated //hoyan:hotpath",
	Run:  runHotPathAlloc,
}

// HotPathDirective marks a function as allocation-budgeted.
const HotPathDirective = "//hoyan:hotpath"

func runHotPathAlloc(pass *Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		if hasDirective(fd.Doc, HotPathDirective) {
			checkHotPathFunc(pass, fd)
		}
	}
	return nil
}

func checkHotPathFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	scratch := scratchLocals(info, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if pkg, name, ok := calleePkgFunc(info, x); ok && pkg == "fmt" {
				pass.Reportf(x.Pos(), "fmt.%s in //hoyan:hotpath function %s allocates", name, fd.Name.Name)
				return true
			}
			checkHotMake(pass, fd, x)
			checkInterfaceArgs(pass, fd, x)
		case *ast.CompositeLit:
			if isMapType(info.Types[x].Type) {
				pass.Reportf(x.Pos(), "map literal in //hoyan:hotpath function %s allocates", fd.Name.Name)
			}
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "func literal in //hoyan:hotpath function %s allocates if it escapes and is called uninlined if it does not", fd.Name.Name)
		case *ast.AssignStmt:
			checkHotAppend(pass, fd, x, scratch)
		case *ast.ReturnStmt:
			checkInterfaceReturns(pass, fd, x)
		}
		return true
	})
}

// scratchLocals returns the objects of locals initialized from a struct
// field (typically `buf := s.sc.buf[:0]`) — reslices of persistent
// scratch storage whose growth is amortized across calls.
func scratchLocals(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, isIdent := as.Lhs[i].(*ast.Ident)
			if !isIdent {
				continue
			}
			if fieldRooted(as.Rhs[i]) {
				if obj := objectOf(info, id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// fieldRooted reports whether the expression is a selector or a slice
// of a selector (s.f, s.f[:0], s.sc.buf[:n]).
func fieldRooted(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.SliceExpr:
		return fieldRooted(x.X)
	case *ast.ParenExpr:
		return fieldRooted(x.X)
	case *ast.IndexExpr:
		return fieldRooted(x.X)
	}
	return false
}

func checkHotMake(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return
	}
	switch t := pass.TypesInfo.Types[call.Args[0]].Type; t.Underlying().(type) {
	case *types.Map:
		pass.Reportf(call.Pos(), "make(map) in //hoyan:hotpath function %s allocates", fd.Name.Name)
	case *types.Chan:
		pass.Reportf(call.Pos(), "make(chan) in //hoyan:hotpath function %s allocates", fd.Name.Name)
	}
}

// checkHotAppend flags appends whose destination is a plain local (a
// fresh, per-call slice) rather than a field-backed scratch slice.
func checkHotAppend(pass *Pass, fd *ast.FuncDecl, as *ast.AssignStmt, scratch map[types.Object]bool) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, isIdent := call.Fun.(*ast.Ident); !isIdent || id.Name != "append" {
			continue
		}
		dst := as.Lhs[i]
		if _, isSel := dst.(*ast.SelectorExpr); isSel {
			continue // arena field: amortized growth
		}
		id, isIdent := dst.(*ast.Ident)
		if !isIdent {
			continue
		}
		if strings.Contains(strings.ToLower(id.Name), "scratch") {
			continue
		}
		if obj := objectOf(pass.TypesInfo, id); obj != nil && scratch[obj] {
			continue
		}
		pass.Reportf(call.Pos(), "append to non-scratch slice %q in //hoyan:hotpath function %s allocates; use a field-backed scratch slice", id.Name, fd.Name.Name)
	}
}

// checkInterfaceArgs flags concrete values boxed into interface
// parameters.
func checkInterfaceArgs(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.TypesInfo
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, isSlice := params.At(params.Len() - 1).Type().(*types.Slice); isSlice {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at.Underlying()) || isUntypedNil(info, arg) {
			continue
		}
		pass.Reportf(arg.Pos(), "concrete value boxed into interface argument in //hoyan:hotpath function %s allocates", fd.Name.Name)
	}
}

// checkInterfaceReturns flags concrete values boxed into interface
// results.
func checkInterfaceReturns(pass *Pass, fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	info := pass.TypesInfo
	if fd.Type.Results == nil || len(ret.Results) == 0 {
		return
	}
	var resultTypes []types.Type
	for _, field := range fd.Type.Results.List {
		t := info.Types[field.Type].Type
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for k := 0; k < n; k++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // single call expanding to multiple results
	}
	for i, res := range ret.Results {
		rt := resultTypes[i]
		if rt == nil || !types.IsInterface(rt.Underlying()) {
			continue
		}
		at := info.Types[res].Type
		if at == nil || types.IsInterface(at.Underlying()) || isUntypedNil(info, res) {
			continue
		}
		pass.Reportf(res.Pos(), "concrete value boxed into interface result in //hoyan:hotpath function %s allocates", fd.Name.Name)
	}
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
