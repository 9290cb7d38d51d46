package lint

import (
	"bytes"
	"encoding/json"
	"errors"
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

// Package is one type-checked package under analysis. loadProgram
// produces these from the build system; tests construct them directly
// from testdata sources.
type Package struct {
	// Path is the package's import path; the package-scoped analyzers
	// (simdeterminism, ctxthread) select on it.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Target marks packages matched by the load patterns. Dependencies
	// inside the module are type-checked from source too (so facts and
	// call-graph edges cross package boundaries with one shared object
	// identity), but diagnostics are only reported in target packages.
	Target bool
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// loadProgram loads, parses, and type-checks the whole program reached
// from the packages matching patterns, resolving go commands relative to
// dir ("" = current directory). It shells out to `go list -export -json
// -deps` exactly once per call — the single build-system round trip of a
// campslint run — which compiles the module and yields export data for
// the standard library. Every module package in the dependency closure
// (not just the matched ones) is then type-checked from source in
// dependency order, importing module dependencies from the freshly
// checked packages and the standard library from export data. Sharing
// one FileSet and one types.Package per path gives cross-package object
// identity: a *types.Func seen at a call site in one package is the same
// object as its definition in another, which is what the facts layer and
// the call graph key on. Only the standard library and the current
// module are involved — no external tooling.
func loadProgram(dir string, patterns []string) (*Program, error) {
	args := append([]string{
		"list", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Error",
		"-deps", "--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go list %s: %s", strings.Join(patterns, " "), msg)
	}

	exports := make(map[string]string)
	// `go list -deps` emits packages in dependency order (a package
	// always follows its dependencies), so checking module packages in
	// stream order guarantees every module import is already checked.
	var module []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if derr := dec.Decode(&p); errors.Is(derr, io.EOF) {
			break
		} else if derr != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", derr)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			module = append(module, p)
		}
	}

	fset := token.NewFileSet()
	byPath := make(map[string]*Package, len(module))
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	imp := &programImporter{gc: gc, byPath: byPath}

	prog := &Program{}
	for _, t := range module {
		files := make([]*ast.File, 0, len(t.GoFiles))
		for _, name := range t.GoFiles {
			path := filepath.Join(t.Dir, name)
			src, rerr := os.ReadFile(path)
			if rerr != nil {
				return nil, fmt.Errorf("reading %s: %w", name, rerr)
			}
			f, perr := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
			if perr != nil {
				return nil, fmt.Errorf("parsing %s: %w", name, perr)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, terr := conf.Check(t.ImportPath, fset, files, info)
		if terr != nil {
			return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, terr)
		}
		pkg := &Package{
			Path:   t.ImportPath,
			Fset:   fset,
			Files:  files,
			Types:  tpkg,
			Info:   info,
			Target: !t.DepOnly,
		}
		byPath[t.ImportPath] = pkg
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

// programImporter resolves imports during loadProgram: module packages
// come from the already-source-checked set (dependency order guarantees
// they exist), the standard library from export data.
type programImporter struct {
	gc     types.Importer
	byPath map[string]*Package
}

func (pi *programImporter) Import(path string) (*types.Package, error) {
	if p, ok := pi.byPath[path]; ok {
		return p.Types, nil
	}
	return pi.gc.Import(path)
}

// newInfo allocates a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
