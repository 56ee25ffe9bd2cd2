// Command vplint is the repository's multichecker: it runs the five custom
// analyzers — determinism, documentation, error handling, keyed literals
// and context discipline (see DESIGN.md, "Determinism contract & lint
// suite") — over the packages matched by the given patterns and exits
// non-zero if any diagnostic fires.
//
// Usage:
//
//	vplint [-C dir] [-json] [packages...]   # default ./...
//	vplint -list
//	vplint -h        # one-line doc per analyzer
//
// With -json the diagnostics are written to stdout as a single JSON
// object instead of text lines:
//
//	{
//	  "version": 1,
//	  "count": 2,
//	  "diagnostics": [
//	    {"analyzer": "detlint", "file": "internal/stats/stats.go",
//	     "line": 15, "column": 2, "message": "..."},
//	    ...
//	  ]
//	}
//
// File paths are slash-separated and relative to the -C directory, and the
// list is sorted by file, line, column, analyzer, so byte-identical inputs
// produce byte-identical output. The exit status is the same as in text
// mode.
//
// A false positive is suppressed in source with
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the diagnostic's line or the line above it. The reason is required;
// a directive without one suppresses nothing and is itself a diagnostic.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"valuepred/internal/lint"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vplint:", err)
		os.Exit(1)
	}
}

// jsonDiagnostic is one finding in the -json output (schema version 1).
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// jsonReport is the top-level -json object.
type jsonReport struct {
	Version     int              `json:"version"`
	Count       int              `json:"count"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir      = fs.String("C", ".", "directory of the module to analyze")
		list     = fs.Bool("list", false, "list the analyzers and exit")
		jsonFlag = fs.Bool("json", false, "emit diagnostics as JSON on stdout")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: vplint [-C dir] [-json] [-list] [packages...]")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "\nanalyzers:")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, firstLine(a.Doc))
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, firstLine(a.Doc))
		}
		return nil
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Run(*dir, patterns)
	if err != nil {
		return err
	}
	if *jsonFlag {
		report := jsonReport{Version: 1, Count: len(diags), Diagnostics: []jsonDiagnostic{}}
		for _, d := range diags {
			report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     relativeTo(*dir, d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if n := len(diags); n > 0 {
		return fmt.Errorf("%d issue(s) found", n)
	}
	return nil
}

// firstLine trims an analyzer doc to its summary line.
func firstLine(doc string) string {
	if i := strings.IndexByte(doc, '\n'); i >= 0 {
		return doc[:i]
	}
	return doc
}

// relativeTo rewrites file relative to dir with forward slashes, so the
// JSON output is stable across checkouts; paths outside dir pass through.
func relativeTo(dir, file string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return filepath.ToSlash(file)
	}
	rel, err := filepath.Rel(abs, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}
