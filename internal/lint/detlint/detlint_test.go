package detlint_test

import (
	"testing"

	"valuepred/internal/lint/analysistest"
	"valuepred/internal/lint/detlint"
)

func TestDetlint(t *testing.T) {
	analysistest.Run(t, "testdata", detlint.Analyzer, "./...")
}

func TestApplies(t *testing.T) {
	// The analyzer must not fire outside internal/<restricted> paths; the
	// "other" fixture package above asserts the positive half, this guards
	// the path predicate itself against regressions.
	for path, want := range map[string]bool{
		"valuepred/internal/emu":        true,
		"valuepred/internal/experiment": true,
		"fix/internal/stats":            true,
		"valuepred/internal/obs":        true, // restricted, with the wall-clock exemption
		"valuepred/internal/tracestore": true,
		"valuepred/internal/plan":       true, // the execution engine merges into ordered output
		"valuepred/internal/ideal":      true, // the Section 3 machine's results
		"valuepred/internal/pipeline":   true, // pooled scratch (scratch.go) lives here
		"valuepred/internal/fetch":      true, // zero-copy group views
		"valuepred/internal/core":       true, // reused network group buffers

		"valuepred/cmd/vpsim":     false,
		"valuepred":               false,
		"emu":                     false, // no internal element
		"valuepred/internal/lint": false, // not a simulator package
	} {
		if got := detlint.Applies(path); got != want {
			t.Errorf("Applies(%q) = %v, want %v", path, got, want)
		}
	}
}
