package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAllocAnalyzer enforces the //rtdvs:hotpath contract: a function so
// annotated sits on an allocation-free steady-state path (the simulator
// event loop, ReadyQueue operations, incremental policy callbacks, obs
// instrument updates) whose 0 allocs/op behavior a benchmark pins. The
// benchmarks only measure the workloads they run; this analyzer rejects
// the allocation-introducing constructs themselves, so a regression is
// caught on every input at vet time:
//
//   - function literals (closure environments allocate);
//   - calls into package fmt (variadic ...any boxes every argument);
//   - make/new calls (direct heap allocation);
//   - map, slice, and &-composite literals (allocation per evaluation);
//   - explicit conversions to an interface type (boxing);
//   - append calls not of the self-assign form x = append(x, ...) — the
//     amortized buffer-reuse shape sched.GrowZeroed and the drained heaps rely
//     on; anything else grows a fresh backing array per call.
//
// Struct literals by value, type assertions, and self-assign appends are
// allowed: none of them allocate in steady state. Cold error paths that
// genuinely need fmt (engine-misuse panics) carry an explicit
// //rtdvs:ignore hotalloc <reason>.
//
// Annotations inside this module are cross-checked against
// HotpathRegistry, the committed function→benchmark list, in both
// directions: an annotated function missing from the registry and a
// registry entry whose function lost its annotation (or disappeared)
// are findings. TestHotpathRegistryBenchmarks closes the loop by
// asserting every registry benchmark still exists, so the annotation
// set, the registry, and the 0-alloc benchmark list cannot drift apart.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc: "flag allocation-introducing constructs (closures, fmt calls, " +
		"make/new, map/slice literals, interface boxing, non-self appends) " +
		"in functions annotated //rtdvs:hotpath, and keep the annotations " +
		"in lockstep with the HotpathRegistry benchmark list",
	Run: runHotAlloc,
}

// hotpathDirective marks a function as part of the allocation-free path.
const hotpathDirective = "rtdvs:hotpath"

// isHotpath reports whether the function's doc comment carries the
// //rtdvs:hotpath directive.
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == hotpathDirective || strings.HasPrefix(text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// FuncKey returns the registry key for a declared function:
// "pkgpath.Func" for plain functions, "pkgpath.Type.Method" for methods
// (pointer receivers are keyed by the element type).
func FuncKey(pkgPath string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkgPath + "." + fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	name := "?"
	if id, ok := t.(*ast.Ident); ok {
		name = id.Name
	}
	return pkgPath + "." + name + "." + fn.Name.Name
}

func runHotAlloc(pass *Pass) error {
	pkgPath := pass.Pkg.Path()
	inModule := pkgPath == "rtdvs" || strings.HasPrefix(pkgPath, "rtdvs/")
	annotated := map[string]bool{}
	var lastFile *ast.File

	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		lastFile = file
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !isHotpath(fn) {
				continue
			}
			key := FuncKey(pkgPath, fn)
			annotated[key] = true
			if inModule {
				if _, ok := HotpathRegistry[key]; !ok {
					pass.Reportf(fn.Pos(),
						"%s is annotated //rtdvs:hotpath but missing from "+
							"analysis.HotpathRegistry; add it with the benchmark "+
							"that pins its 0 allocs/op behavior", key)
				}
			}
			if fn.Body != nil {
				checkHotBody(pass, fn)
			}
		}
	}

	// Reverse direction: a registry entry for this package whose function
	// lost its annotation (or was deleted) is drift too.
	if inModule && lastFile != nil {
		prefix := pkgPath + "."
		for key := range HotpathRegistry {
			if !strings.HasPrefix(key, prefix) || strings.Contains(key[len(prefix):], "/") {
				continue
			}
			if !annotated[key] {
				pass.Reportf(lastFile.Name.Pos(),
					"HotpathRegistry entry %s has no //rtdvs:hotpath function in "+
						"this package; re-annotate it or remove the stale entry", key)
			}
		}
	}
	return nil
}

// checkHotBody reports every allocation-introducing construct in the
// annotated function's body.
func checkHotBody(pass *Pass, fn *ast.FuncDecl) {
	// Appends of the amortized self-assign form x = append(x, ...) are
	// collected first; any other append is a finding.
	selfAppend := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call, "append") || len(call.Args) == 0 {
			return true
		}
		if types.ExprString(as.Lhs[0]) == types.ExprString(call.Args[0]) {
			selfAppend[call] = true
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(e.Pos(),
				"function literal in //rtdvs:hotpath function %s allocates a "+
					"closure; hoist it to a named function or precomputed state",
				fn.Name.Name)
			return false // the literal itself is the finding; don't double-report its body
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[e]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(e.Pos(),
					"map literal in //rtdvs:hotpath function %s allocates; "+
						"preallocate it outside the hot path", fn.Name.Name)
			case *types.Slice:
				pass.Reportf(e.Pos(),
					"slice literal in //rtdvs:hotpath function %s allocates; "+
						"preallocate it outside the hot path", fn.Name.Name)
			}
		case *ast.UnaryExpr:
			if lit, ok := e.X.(*ast.CompositeLit); ok && e.Op.String() == "&" {
				pass.Reportf(lit.Pos(),
					"&-composite literal in //rtdvs:hotpath function %s "+
						"allocates; reuse a preallocated value", fn.Name.Name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, fn, e, selfAppend)
		}
		return true
	})
}

// checkHotCall classifies one call expression inside a hotpath body.
func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, selfAppend map[*ast.CallExpr]bool) {
	// fmt.* boxes its arguments into ...any.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkgPath, ok := packageQualifier(pass, sel); ok && pkgPath == "fmt" {
			pass.Reportf(call.Pos(),
				"fmt.%s in //rtdvs:hotpath function %s boxes its arguments and "+
					"allocates; format off the hot path or use a static message",
				sel.Sel.Name, fn.Name.Name)
			return
		}
	}
	switch {
	case isBuiltin(pass, call, "make"):
		pass.Reportf(call.Pos(),
			"make in //rtdvs:hotpath function %s allocates; grow a reused "+
				"buffer (sched.GrowZeroed) at attach/reset time instead", fn.Name.Name)
	case isBuiltin(pass, call, "new"):
		pass.Reportf(call.Pos(),
			"new in //rtdvs:hotpath function %s allocates; reuse preallocated "+
				"state", fn.Name.Name)
	case isBuiltin(pass, call, "append"):
		if !selfAppend[call] {
			pass.Reportf(call.Pos(),
				"append in //rtdvs:hotpath function %s does not reassign to its "+
					"own first operand (x = append(x, ...)); any other shape "+
					"grows a fresh backing array per call", fn.Name.Name)
		}
	default:
		// Explicit conversion to an interface type boxes the operand.
		tv, ok := pass.TypesInfo.Types[call.Fun]
		if ok && tv.IsType() && types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at, ok := pass.TypesInfo.Types[call.Args[0]]; ok && !types.IsInterface(at.Type) {
				pass.Reportf(call.Pos(),
					"conversion to interface type %s in //rtdvs:hotpath function "+
						"%s boxes the value and may allocate", tv.Type.String(), fn.Name.Name)
			}
		}
	}
}

// isBuiltin reports whether call invokes the named predeclared builtin.
func isBuiltin(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}
