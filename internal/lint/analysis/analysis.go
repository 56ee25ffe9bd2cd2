// Package analysis is a minimal, dependency-free stand-in for
// golang.org/x/tools/go/analysis. The build environment for this
// repository is fully offline (no module proxy), so the upstream framework
// cannot be added to go.mod; this package mirrors the subset of its API
// that the vplint analyzers use — Analyzer, Pass, Diagnostic, Reportf —
// with identical field names and semantics. Every analyzer checks one
// package at a time, so there is no facts mechanism. If the x/tools
// dependency ever becomes available, each analyzer ports to the real
// framework by swapping this import path.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Name appears in diagnostics and in
// suppression directives (see the lint driver); Doc is the human
// description printed by `vplint -list`.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (any, error)
}

// Pass carries one type-checked package through one analyzer. All fields
// mirror golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is one reported problem.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Inspect walks every file of the pass in source order, calling f for each
// node exactly as ast.Inspect does.
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}
