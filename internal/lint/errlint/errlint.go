// Package errlint flags discarded error returns from the result-integrity
// packages: stats, tracestore, experiment, plan and jobs. Those errors are
// the mechanism by which a malformed run fails loudly — AverageTables
// rejects shape mismatches, the trace store surfaces generation failures,
// Run reports unknown experiments, the plan runner reports the first
// failed cell, a job reports its run's failure — and a caller that drops
// one silently converts a detectable corruption into a wrong number in a
// table.
package errlint

import (
	"go/ast"
	"go/types"

	"valuepred/internal/lint/analysis"
	"valuepred/internal/lint/scope"
)

// Analyzer is the ignored-error check.
var Analyzer = &analysis.Analyzer{
	Name: "errlint",
	Doc: "flag error returns from the stats, tracestore, experiment, plan and jobs packages " +
		"that are discarded (call used as a statement, go/defer call, or error " +
		"result assigned to the blank identifier)",
	Run: run,
}

// fromTarget reports whether fn belongs to a package whose error returns
// must be consumed. The member list lives in the shared scoping registry
// (internal/lint/scope, contract scope.Errors); like every registry
// contract it matches internal packages of this module and of test
// fixture modules alike.
func fromTarget(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return scope.Member(scope.Errors, fn.Pkg().Path())
}

func run(pass *analysis.Pass) (any, error) {
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				checkDropped(pass, call, "is discarded")
			}
		case *ast.GoStmt:
			checkDropped(pass, n.Call, "is unobservable in a go statement; recover it on the foreground path")
		case *ast.DeferStmt:
			checkDropped(pass, n.Call, "is discarded by defer; wrap it in a closure that checks the error")
		case *ast.AssignStmt:
			checkBlankAssign(pass, n)
		}
		return true
	})
	return nil, nil
}

// callee resolves the static callee of a direct call, or nil for calls
// through function values, builtins and conversions.
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

var errType = types.Universe.Lookup("error").Type()

// errorResults returns the indices of error-typed results of fn's
// signature.
func errorResults(fn *types.Func) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var idx []int
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errType) {
			idx = append(idx, i)
		}
	}
	return idx
}

func checkDropped(pass *analysis.Pass, call *ast.CallExpr, how string) {
	fn := callee(pass, call)
	if !fromTarget(fn) {
		return
	}
	if len(errorResults(fn)) == 0 {
		return
	}
	pass.Reportf(call.Pos(), "error returned by %s.%s %s", fn.Pkg().Name(), fn.Name(), how)
}

// checkBlankAssign flags `_`-discards of error results in assignments
// whose right side is a single call into a target package, e.g.
// `v, _ := stats.AverageTables(ts)`.
func checkBlankAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := callee(pass, call)
	if !fromTarget(fn) {
		return
	}
	for _, i := range errorResults(fn) {
		if i >= len(as.Lhs) {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(id.Pos(), "error returned by %s.%s is assigned to the blank identifier", fn.Pkg().Name(), fn.Name())
		}
	}
}
