package errlint_test

import (
	"strings"
	"testing"

	"valuepred/internal/lint/analysistest"
	"valuepred/internal/lint/errlint"
	"valuepred/internal/lint/scope"
)

func TestErrlint(t *testing.T) {
	analysistest.Run(t, "testdata", errlint.Analyzer, "./...")
}

// TestDocNamesEveryMember keeps the analyzer's Doc, which vplint -list
// and -h print, naming every package the scope.Errors contract binds.
func TestDocNamesEveryMember(t *testing.T) {
	for name := range scope.Members(scope.Errors) {
		if !strings.Contains(errlint.Analyzer.Doc, " "+name) {
			t.Errorf("errlint's Doc does not name %s, which scope.Errors binds: %q", name, errlint.Analyzer.Doc)
		}
	}
}
