package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestKnownBadFixture runs the full multichecker over the known-bad module
// under testdata and asserts that every analyzer fires, that the run exits
// with an error, and that the suppression directive silences the
// deliberately ignored violation.
func TestKnownBadFixture(t *testing.T) {
	var out, errBuf strings.Builder
	err := run([]string{"-C", "testdata/src", "./..."}, &out, &errBuf)
	if err == nil {
		t.Fatalf("expected an error for the known-bad fixture, got none\noutput:\n%s", out.String())
	}
	got := out.String()
	for _, want := range []struct{ analyzer, fragment string }{
		{"ctxlint", "context.Background mints a root context"},
		{"detlint", "map iteration order is randomized"},
		{"doclint", "package main has no package doc comment"},
		{"errlint", "error returned by stats.Load is discarded"},
		{"keyedlint", "unkeyed fields in composite literal of Config"},
		{"lint", "suppression directive has no reason"},
	} {
		if !strings.Contains(got, want.analyzer+": ") || !strings.Contains(got, want.fragment) {
			t.Errorf("missing %s diagnostic (%q) in output:\n%s", want.analyzer, want.fragment, got)
		}
	}
	if strings.Contains(got, "Suppressed") {
		t.Errorf("the ignore directive did not suppress the marked loop:\n%s", got)
	}
	if !strings.Contains(err.Error(), "7 issue(s) found") {
		t.Errorf("expected exactly 7 issues, got: %v", err)
	}
}

// TestNoReasonDirectiveDoesNotSuppress checks the two halves of the
// reason requirement: the directive itself is a diagnostic, and the
// violation underneath it still fires.
func TestNoReasonDirectiveDoesNotSuppress(t *testing.T) {
	var out, errBuf strings.Builder
	err := run([]string{"-C", "testdata/src", "./internal/stats"}, &out, &errBuf)
	if err == nil {
		t.Fatal("expected an error, got none")
	}
	got := out.String()
	if !strings.Contains(got, "lint: suppression directive has no reason") {
		t.Errorf("missing the directive diagnostic:\n%s", got)
	}
	if !strings.Contains(got, "stats.go:40") {
		t.Errorf("the reason-less directive wrongly suppressed the detlint violation below it:\n%s", got)
	}
}

// TestListAnalyzers checks -list names the full five-analyzer suite.
func TestListAnalyzers(t *testing.T) {
	var out, errBuf strings.Builder
	if err := run([]string{"-list"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ctxlint", "detlint", "doclint", "errlint", "keyedlint"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
	if n := strings.Count(out.String(), "\n"); n != 5 {
		t.Errorf("-list names %d analyzers, want 5:\n%s", n, out.String())
	}
}

// TestJSONOutput checks the -json schema: version 1, count matching the
// diagnostics list, relative slash-separated paths, and deterministic
// byte-for-byte output across runs.
func TestJSONOutput(t *testing.T) {
	var runs [2]string
	for i := range runs {
		var out, errBuf strings.Builder
		err := run([]string{"-C", "testdata/src", "-json", "./..."}, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "7 issue(s) found") {
			t.Fatalf("run %d: expected 7 issues, got err=%v", i, err)
		}
		runs[i] = out.String()
	}
	if runs[0] != runs[1] {
		t.Errorf("-json output is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", runs[0], runs[1])
	}
	var report struct {
		Version     int `json:"version"`
		Count       int `json:"count"`
		Diagnostics []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(runs[0]), &report); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, runs[0])
	}
	if report.Version != 1 {
		t.Errorf("schema version = %d, want 1", report.Version)
	}
	if report.Count != len(report.Diagnostics) || report.Count != 7 {
		t.Errorf("count = %d, len(diagnostics) = %d, want 7", report.Count, len(report.Diagnostics))
	}
	for _, d := range report.Diagnostics {
		if strings.HasPrefix(d.File, "/") || strings.Contains(d.File, "\\") {
			t.Errorf("file %q is not a relative slash path", d.File)
		}
		if d.Analyzer == "" || d.Line <= 0 || d.Column <= 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
}

// TestHelpExitsClean checks -h prints the analyzer roster and is not an
// error (the process must exit 0).
func TestHelpExitsClean(t *testing.T) {
	var out, errBuf strings.Builder
	if err := run([]string{"-h"}, &out, &errBuf); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	usage := errBuf.String()
	for _, name := range []string{"ctxlint", "detlint", "doclint", "errlint", "keyedlint"} {
		if !strings.Contains(usage, name) {
			t.Errorf("-h usage missing analyzer %s:\n%s", name, usage)
		}
	}
}
