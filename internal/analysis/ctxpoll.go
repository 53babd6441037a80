package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxPollAnalyzer enforces the cancellation contract the serving layer
// depends on: a function that accepts a context.Context promises its
// caller bounded-latency cancellation, so every loop in it that is not
// bounded by construction must consult the context — directly
// (ctx.Err(), select on ctx.Done()) or by passing it to a helper that
// does (stride polling like sim's poll, feed/skippable). A `for` loop that
// never mentions the context can spin past a cancelled deadline for the
// rest of the horizon, which is exactly the hang RunContext's
// poll-every-64-events design (sim.cancelCheckInterval) exists to
// prevent.
//
// Loops that are bounded by construction are exempt: range loops (trip
// count bounded by the operand) and canonical counted loops
// (`for i := lo; i < n; i++` over a variable the loop owns). What
// remains — condition-only loops (`for s.clock < horizon`), infinite
// loops (`for {}`), and counted loops with a mutated or foreign
// induction variable — is exactly the shape that can spin unboundedly.
var CtxPollAnalyzer = &Analyzer{
	Name: "ctxpoll",
	Doc: "flag for-loops in context-accepting functions that never " +
		"consult the context; RunContext-style functions must poll " +
		"cancellation on a bounded stride",
	Run: runCtxPoll,
}

func runCtxPoll(pass *Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasCtxParam(pass, fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				loop, ok := n.(*ast.ForStmt)
				if !ok {
					return true
				}
				if isCountedLoop(loop) {
					return true
				}
				if !mentionsContext(pass, loop) {
					pass.Reportf(loop.Pos(),
						"for-loop in context-accepting function %s never consults "+
							"the context; poll ctx.Err() (on a bounded stride) or "+
							"select on ctx.Done() so cancellation stays bounded",
						fn.Name.Name)
				}
				return true
			})
		}
	}
	return nil
}

// isCountedLoop reports whether loop is a canonical counted loop —
// `for i := lo; i OP bound; i++` (or i--, i += k) where the condition
// and post statement act on the variable the init declares or assigns.
// Such loops terminate by construction, like range loops; mutating the
// induction variable inside the body can still extend them, but that
// shape reads as deliberate and is out of scope here.
func isCountedLoop(loop *ast.ForStmt) bool {
	if loop.Init == nil || loop.Cond == nil || loop.Post == nil {
		return false
	}
	var induction string
	switch init := loop.Init.(type) {
	case *ast.AssignStmt:
		if len(init.Lhs) != 1 {
			return false
		}
		id, ok := init.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		induction = id.Name
	default:
		return false
	}
	cond, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok || !mentionsIdent(cond, induction) {
		return false
	}
	switch post := loop.Post.(type) {
	case *ast.IncDecStmt:
		id, ok := post.X.(*ast.Ident)
		return ok && id.Name == induction
	case *ast.AssignStmt:
		if len(post.Lhs) != 1 {
			return false
		}
		id, ok := post.Lhs[0].(*ast.Ident)
		return ok && id.Name == induction &&
			(post.Tok == token.ADD_ASSIGN || post.Tok == token.SUB_ASSIGN)
	}
	return false
}

// mentionsIdent reports whether the expression references name.
func mentionsIdent(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// hasCtxParam reports whether fn declares a context.Context parameter.
func hasCtxParam(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// mentionsContext reports whether any expression inside the loop
// (condition, post statement, or body) has type context.Context — an
// ctx.Err() poll, a ctx.Done() select, or ctx passed to a helper all
// qualify.
func mentionsContext(pass *Pass, loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[expr]; ok && tv.Type != nil && isContextType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}
