// Package hotpath turns the CI allocs/op ceiling from a tripwire into a
// pinpointing diagnostic: functions annotated //ar:hotpath (the tick, drain
// and arbitrate paths that must stay allocation-free in steady state) are
// closed transitively over the package-local static call graph, and every
// construct that allocates — or boxes into an interface — inside that
// closure is flagged at its exact position.
//
// Flagged constructs:
//
//   - &T{...}, new(T): a heap allocation whenever the pointer escapes, and
//     an escape-analysis gamble even when it does not;
//   - slice, map and function literals;
//   - make(...) of any kind;
//   - append(...): growth allocates — preallocate capacity at construction
//     (or //ar:exempt amortized free-list growth);
//   - implicit interface conversions at call arguments and explicit
//     conversions to interface types: boxing a non-pointer allocates.
//
// Constructs inside a call to the builtin panic are not flagged: panic
// paths execute at most once per process and are the idiomatic place for
// formatted diagnostics.
//
// The closure is package-local and by static callee name only: calls
// through interfaces (sim.Component dispatch) or function values do not
// extend it, so each concrete Tick implementation carries its own
// annotation.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the hot-path allocation checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "flag allocation and interface boxing in //ar:hotpath functions and everything " +
		"they reach through package-local static calls",
	Run: run,
}

// Scope is the exemption scope token.
const Scope = "hotpath"

func run(pass *analysis.Pass) error {
	graph := analysis.BuildCallGraph(pass)
	var roots []*types.Func
	for fn, decl := range graph.Decls {
		if analysis.IsHotAnnotated(decl) {
			roots = append(roots, fn)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	sort.Slice(roots, func(i, j int) bool {
		return graph.Decls[roots[i]].Pos() < graph.Decls[roots[j]].Pos()
	})
	hot := graph.Reach(roots)

	fns := make([]*types.Func, 0, len(hot))
	for fn := range hot {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		return graph.Decls[fns[i]].Pos() < graph.Decls[fns[j]].Pos()
	})
	for _, fn := range fns {
		checkFunc(pass, graph.Decls[fn], fn, hot[fn])
	}
	return nil
}

// checkFunc walks one hot function body.
func checkFunc(pass *analysis.Pass, decl *ast.FuncDecl, fn, root *types.Func) {
	where := "hot path " + fn.Name()
	if root != fn {
		where += " (reached from //ar:hotpath " + root.Name() + ")"
	}
	cold := panicSpans(pass, decl.Body)
	report := func(pos token.Pos, format string, args ...interface{}) {
		for _, sp := range cold {
			if pos >= sp.lo && pos < sp.hi {
				return
			}
		}
		args = append(args, where)
		pass.Reportf(pos, Scope, format+" in %s", args...)
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure literal allocates")
			return false // the closure body runs elsewhere
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal heap-allocates")
				}
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				case *types.Slice:
					report(n.Pos(), "slice literal allocates")
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n, report)
		}
		return true
	})
}

// checkCall flags builtin allocators and interface boxing at call sites.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, report func(token.Pos, string, ...interface{})) {
	// Explicit conversion to an interface type: T(x) where T is an
	// interface boxes x.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := pass.TypesInfo.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) && !isUntypedNil(at) {
				report(call.Pos(), "conversion of %s to interface %s boxes",
					analysis.TypeName(at, pass.Pkg), analysis.TypeName(tv.Type, pass.Pkg))
			}
			return
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new":
				report(call.Pos(), "new(...) heap-allocates")
				return
			case "make":
				report(call.Pos(), "make(...) allocates")
				return
			case "append":
				report(call.Pos(), "append may grow its backing array; preallocate capacity")
				return
			case "panic", "len", "cap", "copy", "delete", "print", "println",
				"min", "max", "clear", "real", "imag", "complex", "recover":
				return
			}
		}
	}
	// Implicit interface conversions at argument positions.
	sig, ok := typeOfCallee(pass, call)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue // generic instantiation, not boxing
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(at) {
			continue
		}
		report(arg.Pos(), "passing %s as interface %s boxes",
			analysis.TypeName(at, pass.Pkg), analysis.TypeName(pt, pass.Pkg))
	}
}

// typeOfCallee returns the signature of the called function, if statically
// known.
func typeOfCallee(pass *analysis.Pass, call *ast.CallExpr) (*types.Signature, bool) {
	t := pass.TypesInfo.TypeOf(call.Fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// span is a half-open position interval.
type span struct{ lo, hi token.Pos }

// panicSpans collects the argument ranges of every panic(...) call in body:
// diagnostics inside them are suppressed (cold path).
func panicSpans(pass *analysis.Pass, body *ast.BlockStmt) []span {
	var spans []span
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			spans = append(spans, span{lo: call.Lparen, hi: call.Rparen + 1})
		}
		return true
	})
	return spans
}
