// Package poolown statically enforces the single-owner pooled-packet
// lifecycle of DESIGN.md "Memory discipline": a packet acquired from
// network.Pool, directly or through cache.PacketFor, has exactly one owner,
// ownership moves at a transfer point (Inject, Deliver, a commit callback —
// any call the packet is passed to, or a store into a longer-lived
// structure), and the packet is released exactly once at its final
// consumption point. The runtime guards (Pool.Put's double-release panic,
// SetGuard poisoning) catch violations after they execute; this analyzer
// catches them in review.
//
// The analysis is intra-procedural and path-sensitive over the structured
// control flow of one function body. Within a function it reports:
//
//   - use after release: a tracked variable is read on a path after being
//     Put back into its pool;
//   - double release: a tracked variable reaches a second Put on some path
//     (including a Put after a deferred Put);
//   - leak: a path reaches a return (or falls off the end of a loop body
//     that acquired the object) with the object still owned — neither
//     released nor transferred.
//
// Ownership transfer is deliberately coarse: passing the variable to any
// call, storing it anywhere (field, slice, map, channel, another variable),
// returning it, or capturing it in a closure ends tracking. That
// under-approximates bugs but keeps false positives near zero, which is
// what lets `arlint ./...` gate CI.
package poolown

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the pool-ownership checker.
var Analyzer = &analysis.Analyzer{
	Name: "poolown",
	Doc: "enforce the single-owner pooled packet lifecycle: no use after release, " +
		"no double release, no owned object leaking out of a function",
	Run: run,
}

// Scope is the exemption scope token.
const Scope = "poolown"

// poolType identifies a free-list type by package path and type name.
type poolType struct{ pkg, name string }

// pools are the recognized free-list types and their acquire/release
// method names.
var pools = map[poolType]bool{
	{"repro/internal/network", "Pool"}: true,
}

// acquireFuncs are package-level functions that acquire from a pool passed
// as their first argument and return the acquired object.
var acquireFuncs = map[poolType]bool{
	{"repro/internal/cache", "PacketFor"}: true,
}

// state is the per-variable ownership lattice. A variable may hold several
// bits after a control-flow merge.
type state uint8

const (
	live     state = 1 << iota // owned here, must be released or transferred
	released                   // returned to its pool
)

// frame is the abstract store: tracked variables and their possible states.
// Variables not in the map are untracked (never acquired, or ownership
// moved elsewhere).
type frame map[*types.Var]varInfo

type varInfo struct {
	st       state
	acquired token.Pos // position of the acquiring call (diagnostics)
	deferred bool      // a deferred release is pending
}

func (f frame) clone() frame {
	c := make(frame, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

// merge unions the states of two reachable frames.
func merge(a, b frame) frame {
	out := a.clone()
	for k, v := range b {
		if prev, ok := out[k]; ok {
			prev.st |= v.st
			prev.deferred = prev.deferred || v.deferred
			out[k] = prev
		} else {
			out[k] = v
		}
	}
	return out
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			an := &fnAnalysis{pass: pass}
			if an.bailout(fd.Body) {
				continue
			}
			fr := make(frame)
			reachable := an.execBlock(fd.Body.List, fr)
			if reachable {
				an.checkEnd(fr, fd.Body.Rbrace)
			}
		}
	}
	return nil
}

// fnAnalysis is the per-function interpreter state.
type fnAnalysis struct {
	pass     *analysis.Pass
	reported map[token.Pos]bool // dedupe per acquire site for leaks
}

// bailout reports control flow the interpreter does not model precisely;
// such functions are skipped rather than analyzed wrongly.
func (a *fnAnalysis) bailout(body *ast.BlockStmt) bool {
	skip := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BranchStmt:
			if n.Tok == token.GOTO || n.Tok == token.FALLTHROUGH {
				skip = true
			}
		case *ast.LabeledStmt:
			skip = true
		}
		return !skip
	})
	return skip
}

// execBlock interprets a statement list, mutating fr in place. It returns
// false if control cannot fall out of the block (every path returned,
// panicked, or branched away).
func (a *fnAnalysis) execBlock(stmts []ast.Stmt, fr frame) bool {
	for _, s := range stmts {
		if !a.execStmt(s, fr) {
			return false
		}
	}
	return true
}

// execStmt interprets one statement; false means control does not continue
// past it on any path.
func (a *fnAnalysis) execStmt(s ast.Stmt, fr frame) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		a.execExpr(s.X, fr)
		return !isPanic(a.pass, s.X)

	case *ast.AssignStmt:
		a.execAssign(s, fr)
		return true

	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						a.execExpr(v, fr)
					}
				}
			}
		}
		return true

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			a.execExpr(r, fr)
			// Returning the object transfers ownership to the caller.
			if v := a.trackedIdent(r, fr); v != nil {
				delete(fr, v)
			}
		}
		a.checkEnd(fr, s.Return)
		return false

	case *ast.DeferStmt:
		a.execDefer(s, fr)
		return true

	case *ast.GoStmt:
		a.execExpr(s.Call, fr)
		return true

	case *ast.IfStmt:
		if s.Init != nil {
			a.execStmt(s.Init, fr)
		}
		// `if send(p)` / `if !send(p)` on a bool-returning call models the
		// fabric's conditional-transfer contract (Inject/Deliver/Sender):
		// true means the callee took ownership, false means the caller
		// kept it. Only the accepting branch drops tracking.
		condVar, negated, conditional := a.condOwnership(s.Cond, fr)
		if conditional {
			a.checkUse(s.Cond, fr)
		} else {
			a.execExpr(s.Cond, fr)
		}
		thenFr := fr.clone()
		elseFr := fr.clone()
		if conditional {
			if negated {
				delete(elseFr, condVar) // !send(p): else-path transferred
			} else {
				delete(thenFr, condVar) // send(p): then-path transferred
			}
		}
		thenOK := a.execBlock(s.Body.List, thenFr)
		elseOK := true
		if s.Else != nil {
			elseOK = a.execStmt(s.Else, elseFr)
		}
		switch {
		case thenOK && elseOK:
			replace(fr, merge(thenFr, elseFr))
		case thenOK:
			replace(fr, thenFr)
		case elseOK:
			replace(fr, elseFr)
		default:
			return false
		}
		return true

	case *ast.BlockStmt:
		return a.execBlock(s.List, fr)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return a.execSwitch(s, fr)

	case *ast.ForStmt:
		if s.Init != nil {
			a.execStmt(s.Init, fr)
		}
		if s.Cond != nil {
			a.execExpr(s.Cond, fr)
		}
		a.execLoopBody(s.Body, fr)
		return true

	case *ast.RangeStmt:
		a.execExpr(s.X, fr)
		a.execLoopBody(s.Body, fr)
		return true

	case *ast.BranchStmt:
		// break/continue: control leaves this statement list. The merged
		// loop-exit state is approximated by the loop-entry escape rule in
		// execLoopBody, so terminating here is safe.
		return false

	case *ast.SendStmt:
		a.execExpr(s.Value, fr)
		if v := a.trackedIdent(s.Value, fr); v != nil {
			delete(fr, v) // channel send transfers ownership
		}
		a.execExpr(s.Chan, fr)
		return true

	case *ast.IncDecStmt:
		a.execExpr(s.X, fr)
		return true

	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				cfr := fr.clone()
				if cc.Comm != nil {
					a.execStmt(cc.Comm, cfr)
				}
				a.execBlock(cc.Body, cfr)
				replace(fr, merge(fr, cfr))
			}
		}
		return true

	case *ast.LabeledStmt, *ast.EmptyStmt:
		return true

	default:
		return true
	}
}

// replace overwrites dst's contents with src's.
func replace(dst, src frame) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// execSwitch interprets switch/type-switch: each case body runs from the
// pre-switch state; reachable exits merge (plus the no-case-taken path when
// there is no default clause).
func (a *fnAnalysis) execSwitch(s ast.Stmt, fr frame) bool {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			a.execStmt(s.Init, fr)
		}
		if s.Tag != nil {
			a.execExpr(s.Tag, fr)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			a.execStmt(s.Init, fr)
		}
		a.execStmt(s.Assign, fr)
		body = s.Body
	}
	var outs []frame
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cfr := fr.clone()
		for _, e := range cc.List {
			a.execExpr(e, cfr)
		}
		if a.execBlock(cc.Body, cfr) {
			outs = append(outs, cfr)
		}
	}
	if !hasDefault {
		outs = append(outs, fr.clone())
	}
	if len(outs) == 0 {
		return false
	}
	m := outs[0]
	for _, o := range outs[1:] {
		m = merge(m, o)
	}
	replace(fr, m)
	return true
}

// execLoopBody interprets a loop body conservatively: variables tracked
// before the loop stop being tracked (an iteration boundary is a merge
// point the linear interpreter cannot model), and a variable acquired
// inside the body must settle its ownership before the iteration ends.
func (a *fnAnalysis) execLoopBody(body *ast.BlockStmt, fr frame) {
	for k := range fr {
		delete(fr, k)
	}
	inner := make(frame)
	if a.execBlock(body.List, inner) {
		a.checkEnd(inner, body.Rbrace)
	}
}

// execAssign handles acquire sites, reassignment-while-owned, and stores
// that transfer ownership.
func (a *fnAnalysis) execAssign(s *ast.AssignStmt, fr frame) {
	for _, r := range s.Rhs {
		a.execExpr(r, fr)
	}
	for i, l := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		}
		id, isIdent := ast.Unparen(l).(*ast.Ident)
		if isIdent && id.Name != "_" {
			v := a.varOf(id)
			if v != nil {
				if prev, ok := fr[v]; ok && prev.st&live != 0 && !prev.deferred {
					a.pass.Reportf(s.TokPos, Scope,
						"%s still owns the object acquired at %s when reassigned; "+
							"release or transfer it first", id.Name,
						a.pass.Fset.Position(prev.acquired))
				}
				delete(fr, v)
				if rhs != nil {
					if pos, ok := a.acquireCall(rhs); ok {
						fr[v] = varInfo{st: live, acquired: pos}
						continue
					}
				}
			}
		} else if l != nil {
			a.execExpr(l, fr)
		}
		// Storing a tracked object anywhere (field, index, map, another
		// variable) transfers ownership out of the function's view.
		if rhs != nil {
			if v := a.trackedIdent(rhs, fr); v != nil {
				delete(fr, v)
			}
		}
	}
}

// execDefer handles `defer pool.Put(p)` (a pending release) and treats any
// other deferred call mentioning tracked variables as a transfer.
func (a *fnAnalysis) execDefer(s *ast.DeferStmt, fr frame) {
	if v, ok := a.releaseCall(s.Call, fr); ok {
		info := fr[v]
		if info.deferred || info.st&released != 0 {
			a.pass.Reportf(s.Call.Pos(), Scope,
				"double release: a release of %s is already pending or done",
				v.Name())
		}
		info.deferred = true
		fr[v] = info
		return
	}
	a.execExpr(s.Call, fr)
}

// execExpr walks an expression: checks uses of released variables, handles
// release calls, and applies the transfer rule to call arguments and
// composite literals. Acquire calls in expression position (not assigned to
// a variable) immediately leak unless their result is consumed by a
// transfer, so they are treated as transfers-to-callee by the same rule.
func (a *fnAnalysis) execExpr(e ast.Expr, fr frame) {
	if e == nil {
		return
	}
	// Release call?
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if v, ok := a.releaseCall(call, fr); ok {
			info := fr[v]
			if info.st&released != 0 || info.deferred {
				a.pass.Reportf(call.Pos(), Scope,
					"double release of %s (acquired at %s)", v.Name(),
					a.pass.Fset.Position(info.acquired))
			}
			info.st = released
			fr[v] = info
			return
		}
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closure capture: every tracked variable referenced inside
			// stops being tracked (the closure may release or keep it).
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v := a.varOf(id); v != nil {
						delete(fr, v)
					}
				}
				return true
			})
			return false
		case *ast.CallExpr:
			// Arguments first: a use of a released variable inside a call
			// is still a use.
			for _, arg := range n.Args {
				a.checkUse(arg, fr)
			}
			// Then the transfer rule, unless this is the pool's own Put
			// (handled by the caller) or a nested acquire.
			if _, isRelease := a.releaseCall(n, fr); !isRelease {
				for _, arg := range n.Args {
					if v := a.trackedIdent(arg, fr); v != nil {
						delete(fr, v)
					}
				}
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if v := a.trackedIdent(n.X, fr); v != nil {
					delete(fr, v) // address taken: aliasing defeats tracking
				}
			}
			return true
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if v := a.trackedIdent(val, fr); v != nil {
					delete(fr, v) // stored into a literal: transferred
				}
			}
			return true
		case *ast.Ident:
			a.checkUseIdent(n, fr)
			return true
		}
		return true
	})
}

// checkUse flags expression e if it reads a variable in released state.
func (a *fnAnalysis) checkUse(e ast.Expr, fr frame) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			a.checkUseIdent(id, fr)
		}
		return true
	})
}

func (a *fnAnalysis) checkUseIdent(id *ast.Ident, fr frame) {
	v := a.varOf(id)
	if v == nil {
		return
	}
	if info, ok := fr[v]; ok && info.st&released != 0 {
		a.pass.Reportf(id.Pos(), Scope,
			"use of %s after release (acquired at %s): the pool may already "+
				"have handed it to another owner", id.Name,
			a.pass.Fset.Position(info.acquired))
	}
}

// checkEnd reports owned objects at a function exit point.
func (a *fnAnalysis) checkEnd(fr frame, at token.Pos) {
	if a.reported == nil {
		a.reported = make(map[token.Pos]bool)
	}
	for v, info := range fr {
		if info.st&live != 0 && !info.deferred {
			if a.reported[info.acquired] {
				continue
			}
			a.reported[info.acquired] = true
			a.pass.Reportf(info.acquired, Scope,
				"%s may leak: on the path reaching line %d it is neither released "+
					"nor ownership-transferred", v.Name(),
				a.pass.Fset.Position(at).Line)
		}
	}
}

// condOwnership recognizes `send(p)` or `!send(p)` as an if-condition,
// where send is any bool-returning call (not a pool method) with exactly
// one tracked variable among its arguments. It returns that variable and
// whether the call is negated.
func (a *fnAnalysis) condOwnership(cond ast.Expr, fr frame) (*types.Var, bool, bool) {
	negated := false
	e := ast.Unparen(cond)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		negated = true
		e = ast.Unparen(u.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, false, false
	}
	t := a.pass.TypesInfo.TypeOf(call)
	if t == nil {
		return nil, false, false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.Bool {
		return nil, false, false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := a.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && isPoolMethod(fn) {
			return nil, false, false
		}
	}
	var tracked *types.Var
	for _, arg := range call.Args {
		if v := a.trackedIdent(arg, fr); v != nil {
			if tracked != nil {
				return nil, false, false // two tracked args: stay coarse
			}
			tracked = v
		}
	}
	if tracked == nil {
		return nil, false, false
	}
	return tracked, negated, true
}

// varOf resolves an identifier to a local/param variable object.
func (a *fnAnalysis) varOf(id *ast.Ident) *types.Var {
	v, _ := a.pass.TypesInfo.Uses[id].(*types.Var)
	if v == nil {
		v, _ = a.pass.TypesInfo.Defs[id].(*types.Var)
	}
	return v
}

// trackedIdent returns the tracked variable behind e, if any.
func (a *fnAnalysis) trackedIdent(e ast.Expr, fr frame) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v := a.varOf(id)
	if v == nil {
		return nil
	}
	if _, ok := fr[v]; !ok {
		return nil
	}
	return v
}

// acquireCall reports whether e is a pool acquire (pool.Get(...) on a
// recognized pool type, or a recognized acquire function), returning the
// call position.
func (a *fnAnalysis) acquireCall(e ast.Expr) (token.Pos, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return token.NoPos, false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, ok := a.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok {
			return token.NoPos, false
		}
		if fn.Name() == "Get" && isPoolMethod(fn) {
			return call.Pos(), true
		}
		if pt, ok := funcKey(fn); ok && acquireFuncs[pt] {
			return call.Pos(), true
		}
	case *ast.Ident:
		fn, ok := a.pass.TypesInfo.Uses[fun].(*types.Func)
		if !ok {
			return token.NoPos, false
		}
		if pt, ok := funcKey(fn); ok && acquireFuncs[pt] {
			return call.Pos(), true
		}
	}
	return token.NoPos, false
}

// releaseCall reports whether call is pool.Put(v) on a tracked variable v.
func (a *fnAnalysis) releaseCall(call *ast.CallExpr, fr frame) (*types.Var, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 {
		return nil, false
	}
	fn, ok := a.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Put" || !isPoolMethod(fn) {
		return nil, false
	}
	v := a.trackedIdent(call.Args[0], fr)
	if v == nil {
		return nil, false
	}
	return v, true
}

// isPoolMethod reports whether fn is a method on a recognized pool type.
func isPoolMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return pools[poolType{named.Obj().Pkg().Path(), named.Obj().Name()}]
}

// funcKey returns the (package, name) key of a package-level function.
func funcKey(fn *types.Func) (poolType, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || fn.Pkg() == nil {
		return poolType{}, false
	}
	return poolType{fn.Pkg().Path(), fn.Name()}, true
}

// isPanic reports whether e is a call to the builtin panic.
func isPanic(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
