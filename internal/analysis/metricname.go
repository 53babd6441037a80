package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
	"sync"
)

// MetricNameAnalyzer validates the metric and label names that reach the
// internal/obs registry. The obs package panics on a bad name — but only
// when the registration line actually executes, which for rarely-wired
// instruments (debug listeners, per-label families built in a loop) can
// be long after the typo merged. This analyzer moves the check to vet time
// for every registration whose name is a compile-time string literal:
//
//   - metric names must match the Prometheus data-model grammar
//     [a-zA-Z_:][a-zA-Z0-9_:]*;
//   - label names must match [a-zA-Z_][a-zA-Z0-9_]* and must not start
//     with "__" (reserved for Prometheus internals);
//   - a metric name may be registered at only one call site repo-wide:
//     two packages claiming the same family is either a copy-paste error
//     or an aggregation hazard (the obs registry would panic on the
//     duplicate instrument, but only if both lines run in one process).
//
// Dynamic names (built at runtime, e.g. CounterVec children) are the obs
// registry's runtime checks' job and are skipped here.
var MetricNameAnalyzer = &Analyzer{
	Name: "metricname",
	Doc: "flag invalid Prometheus metric/label names and repo-wide " +
		"duplicate metric registrations at obs registry call sites",
	Run: runMetricName,
}

// obsRegistrations maps obs.Registry method names to the index of their
// first variadic label argument (-1: all variadic args are label names).
var obsRegistrations = map[string]int{
	"Counter":    2, // (name, help, labelPairs...)
	"Gauge":      2,
	"GaugeFunc":  3,  // (name, help, fn, labelPairs...)
	"Histogram":  3,  // (name, help, buckets, labelPairs...)
	"CounterVec": -2, // (name, help, labelNames...)
}

// metricSites records, per FileSet (i.e. per analysis run, since every
// load shares one), the first call site seen for each metric name, so
// repo-wide uniqueness survives the per-package analyzer granularity in
// standalone and test runs. In per-package vet.cfg mode each process
// sees one package and the check degrades to per-package uniqueness.
var metricSites = struct {
	sync.Mutex
	m map[*token.FileSet]map[string]string
}{m: map[*token.FileSet]map[string]string{}}

func runMetricName(pass *Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			labelStart, isReg := obsRegistrations[sel.Sel.Name]
			if !isReg || !isObsRegistry(pass, sel) || len(call.Args) == 0 {
				return true
			}
			checkMetricName(pass, call)
			if labelStart == -2 {
				for _, arg := range call.Args[2:] {
					checkLabelName(pass, arg)
				}
			} else if len(call.Args) > labelStart {
				// Constant key/value pairs: even offsets are label names.
				for i, arg := range call.Args[labelStart:] {
					if i%2 == 0 {
						checkLabelName(pass, arg)
					}
				}
			}
			return true
		})
	}
	return nil
}

// isObsRegistry reports whether sel's receiver is the obs.Registry type
// (by name, so the testdata corpus and the obs package itself both
// match).
func isObsRegistry(pass *Pass, sel *ast.SelectorExpr) bool {
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Name() != "Registry" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && strings.HasSuffix(pkg.Path(), "obs")
}

// checkMetricName validates the literal metric name and its repo-wide
// uniqueness.
func checkMetricName(pass *Pass, call *ast.CallExpr) {
	name, ok := stringLiteral(call.Args[0])
	if !ok {
		return
	}
	if !promMetricName(name) {
		pass.Reportf(call.Args[0].Pos(),
			"metric name %q does not match the Prometheus grammar "+
				"[a-zA-Z_:][a-zA-Z0-9_:]*", name)
		return
	}
	site := pass.Fset.Position(call.Pos()).String()
	metricSites.Lock()
	sites := metricSites.m[pass.Fset]
	if sites == nil {
		sites = map[string]string{}
		metricSites.m[pass.Fset] = sites
	}
	first, seen := sites[name]
	if !seen {
		sites[name] = site
	}
	metricSites.Unlock()
	if seen && first != site {
		pass.Reportf(call.Args[0].Pos(),
			"metric %q is already registered at %s; metric names must be "+
				"unique repo-wide", name, first)
	}
}

// checkLabelName validates one literal label-name argument.
func checkLabelName(pass *Pass, arg ast.Expr) {
	name, ok := stringLiteral(arg)
	if !ok {
		return
	}
	switch {
	case strings.HasPrefix(name, "__"):
		pass.Reportf(arg.Pos(),
			"label name %q uses the double-underscore prefix reserved for "+
				"Prometheus internals", name)
	case !promLabelName(name):
		pass.Reportf(arg.Pos(),
			"label name %q does not match the Prometheus grammar "+
				"[a-zA-Z_][a-zA-Z0-9_]*", name)
	}
}

// stringLiteral returns the value of a compile-time constant string
// expression (literal or named constant).
func stringLiteral(e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		return s, err == nil
	}
	return "", false
}

// promMetricName implements [a-zA-Z_:][a-zA-Z0-9_:]*.
func promMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// promLabelName is the metric grammar minus the colon.
func promLabelName(s string) bool {
	return promMetricName(s) && !strings.ContainsRune(s, ':')
}
