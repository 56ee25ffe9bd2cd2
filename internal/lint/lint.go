// Package lint assembles the vplint analyzer suite and runs it over
// loaded packages. It is the engine behind cmd/vplint and `make lint`.
//
// # Suppressing a false positive
//
// A diagnostic can be silenced with a directive comment naming the
// analyzer and giving a reason:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// The directive applies to diagnostics on its own line or on the line
// immediately below it (so it can sit on its own line above a long
// statement). `//lint:ignore all <reason>` silences every analyzer. The
// reason is mandatory: a directive without one suppresses nothing and is
// itself reported as a diagnostic (analyzer "lint"), as is a directive
// naming an analyzer that is not in the suite.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"valuepred/internal/lint/analysis"
	"valuepred/internal/lint/ctxlint"
	"valuepred/internal/lint/detlint"
	"valuepred/internal/lint/doclint"
	"valuepred/internal/lint/errlint"
	"valuepred/internal/lint/keyedlint"
	"valuepred/internal/lint/loader"
)

// Analyzers returns the full vplint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxlint.Analyzer,
		detlint.Analyzer,
		doclint.Analyzer,
		errlint.Analyzer,
		keyedlint.Analyzer,
	}
}

// Diagnostic is one resolved finding.
type Diagnostic struct {
	// Analyzer is the name of the check that fired ("lint" for a
	// malformed suppression directive).
	Analyzer string
	// Pos is the resolved source position.
	Pos token.Position
	// Message describes the violation.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run loads the packages matched by patterns relative to dir, applies the
// full suite, filters out suppressed findings and returns the rest — plus
// one diagnostic per malformed suppression directive — sorted by position.
func Run(dir string, patterns []string) ([]Diagnostic, error) {
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	analyzers := Analyzers()
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup, bad := suppressions(pkg, known)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if sup.matches(a.Name, pos) {
					return
				}
				diags = append(diags, Diagnostic{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// suppression records one well-formed ignore directive.
type suppression struct {
	file      string
	line      int
	analyzers map[string]bool // nil means "all"
}

type suppressionSet []suppression

// directive starts a suppression comment.
const directive = "//lint:ignore"

// suppressions collects the ignore directives of every file in pkg. A
// directive missing its reason, or naming an analyzer outside the suite,
// is returned as a diagnostic instead of a suppression: it silences
// nothing.
func suppressions(pkg *loader.Package, known map[string]bool) (suppressionSet, []Diagnostic) {
	var set suppressionSet
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directive)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				report := func(format string, args ...any) {
					bad = append(bad, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  fmt.Sprintf(format, args...),
					})
				}
				if len(fields) == 0 {
					report("suppression directive names no analyzer; use //lint:ignore <analyzer> <reason>")
					continue
				}
				if len(fields) < 2 {
					report("suppression directive has no reason and suppresses nothing; use //lint:ignore %s <reason>", fields[0])
					continue
				}
				s := suppression{file: pos.Filename, line: pos.Line}
				if fields[0] != "all" {
					s.analyzers = make(map[string]bool)
					ok := true
					for _, name := range strings.Split(fields[0], ",") {
						if !known[name] {
							report("suppression directive names unknown analyzer %q (run vplint -list)", name)
							ok = false
							break
						}
						s.analyzers[name] = true
					}
					if !ok {
						continue
					}
				}
				set = append(set, s)
			}
		}
	}
	return set, bad
}

// matches reports whether a diagnostic from the named analyzer at pos is
// covered by a directive on the same line or the line above.
func (set suppressionSet) matches(name string, pos token.Position) bool {
	for _, s := range set {
		if s.file != pos.Filename {
			continue
		}
		if s.line != pos.Line && s.line != pos.Line-1 {
			continue
		}
		if s.analyzers == nil || s.analyzers[name] {
			return true
		}
	}
	return false
}
