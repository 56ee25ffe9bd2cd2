// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want` comments, mirroring the upstream
// golang.org/x/tools/go/analysis/analysistest contract: a line that should
// trigger a diagnostic carries a comment of the form
//
//	bad() // want `regexp`
//
// (one backquoted regexp per expected diagnostic on that line). Every
// diagnostic must match a want on its line and every want must be matched,
// otherwise the test fails with the full mismatch list.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"valuepred/internal/lint/analysis"
	"valuepred/internal/lint/loader"
)

// wantRe extracts the backquoted expectations of a want comment.
var wantRe = regexp.MustCompile("`([^`]*)`")

// expectation is one want on one line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads patterns from dir/src (a self-contained fixture module),
// applies a, and diffs diagnostics against the fixtures' want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := loader.Load(filepath.Join(dir, "src"), patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages matched %v", patterns)
	}
	for _, pkg := range pkgs {
		wants := collectWants(t, pkg)
		var unexpected []string
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		pass.Report = func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			for i := range wants {
				w := &wants[i]
				if w.matched || w.file != pos.Filename || w.line != pos.Line {
					continue
				}
				if w.pattern.MatchString(d.Message) {
					w.matched = true
					return
				}
			}
			unexpected = append(unexpected, fmt.Sprintf("%s: unexpected diagnostic: %s", pos, d.Message))
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.PkgPath, err)
		}
		for _, u := range unexpected {
			t.Error(u)
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched `%s`", w.file, w.line, w.pattern)
			}
		}
	}
}

// collectWants parses the want comments of every file in pkg.
func collectWants(t *testing.T, pkg *loader.Package) []expectation {
	t.Helper()
	var wants []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "want ")
				if !strings.HasPrefix(c.Text, "//") || idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}
