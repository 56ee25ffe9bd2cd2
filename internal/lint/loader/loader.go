// Package loader loads and type-checks Go packages for the lint suite
// without golang.org/x/tools/go/packages (the build environment is
// offline). It shells out to `go list -deps -export -json`, which compiles
// dependencies and reports the export-data file of every package in the
// build cache, then parses only the target packages from source and
// type-checks them with the standard gc importer reading those export
// files. The result is full go/types information for every package matched
// by the patterns, with real source positions for diagnostics.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the import path.
	PkgPath string
	// Fset is the file set shared by every package of the same Load call.
	Fset *token.FileSet
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo records types and objects for every expression.
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matched by patterns, resolving them
// relative to dir (the module to analyze). Test files are not loaded: the
// lint contract covers shipped simulator code, and `go vet` already runs
// over the tests in the same `make check` gate.
//
// Packages are returned in `go list -deps` order, dependencies first.
// Every analyzer checks one package at a time and lint.Run sorts its
// diagnostics by position, so nothing depends on that order.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// GOWORK=off keeps a workspace file in a parent directory from pulling
	// unrelated modules into the fixture loads under testdata.
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("loader: no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("loader: %v", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("loader: type-checking %s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			PkgPath:   t.ImportPath,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return pkgs, nil
}
