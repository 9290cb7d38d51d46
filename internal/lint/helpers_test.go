package lint

// The analysistest-style harness: testdata/src/<importpath>/ holds
// golden packages whose comments carry `// want "regexp"` (or
// backquoted) expectations, one per diagnostic on that line. Packages
// are type-checked from testdata sources; fake camps/internal/* stubs in
// testdata shadow the real packages, and standard-library imports are
// satisfied from the build cache's export data via `go list -export`.

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
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var stdExports struct {
	once sync.Once
	m    map[string]string
	err  error
}

// stdlibExports returns importpath -> export-data file for the full
// dependency closure of the real module, computed once per test binary.
func stdlibExports(t *testing.T) map[string]string {
	t.Helper()
	stdExports.once.Do(func() {
		cmd := exec.Command("go", "list", "-export", "-json=ImportPath,Export", "-deps", "./...")
		cmd.Dir = filepath.Join("..", "..")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			stdExports.err = fmt.Errorf("go list -export: %v\n%s", err, stderr.String())
			return
		}
		stdExports.m = make(map[string]string)
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if derr := dec.Decode(&p); errors.Is(derr, io.EOF) {
				break
			} else if derr != nil {
				stdExports.err = derr
				return
			}
			if p.Export != "" {
				stdExports.m[p.ImportPath] = p.Export
			}
		}
	})
	if stdExports.err != nil {
		t.Fatalf("loading stdlib export data: %v", stdExports.err)
	}
	return stdExports.m
}

// testImporter resolves imports for testdata packages: paths that exist
// under the testdata root are type-checked from those sources (so fakes
// shadow real camps packages); everything else comes from export data.
// Packages are recorded in completion order — imports finish before
// their importer, so done is in dependency order, ready for a Program.
type testImporter struct {
	fset    *token.FileSet
	root    string
	gc      types.Importer
	pkgs    map[string]*types.Package
	loading map[string]bool
	done    []*Package
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if p, ok := ti.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ti.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		if ti.loading[path] {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		pkg, _, _, err := ti.check(path, dir)
		return pkg, err
	}
	return ti.gc.Import(path)
}

func (ti *testImporter) check(path, dir string) (*types.Package, []*ast.File, *types.Info, error) {
	ti.loading[path] = true
	defer delete(ti.loading, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		full := filepath.Join(dir, e.Name())
		src, rerr := os.ReadFile(full)
		if rerr != nil {
			return nil, nil, nil, rerr
		}
		f, perr := parser.ParseFile(ti.fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, nil, nil, perr
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: ti}
	pkg, err := conf.Check(path, ti.fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	ti.pkgs[path] = pkg
	ti.done = append(ti.done, &Package{
		Path:   path,
		Fset:   ti.fset,
		Files:  files,
		Types:  pkg,
		Info:   info,
		Target: true,
	})
	return pkg, files, info, nil
}

// loadTestPackage type-checks testdata/src/<importPath> into a Package
// ready for runAnalyzer.
func loadTestPackage(t *testing.T, importPath string) *Package {
	t.Helper()
	exports := stdlibExports(t)
	fset := token.NewFileSet()
	ti := &testImporter{
		fset:    fset,
		root:    filepath.Join("testdata", "src"),
		pkgs:    make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
	ti.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	dir := filepath.Join(ti.root, filepath.FromSlash(importPath))
	tpkg, files, info, err := ti.check(importPath, dir)
	if err != nil {
		t.Fatalf("loading testdata package %s: %v", importPath, err)
	}
	return &Package{Path: importPath, Fset: fset, Files: files, Types: tpkg, Info: info}
}

// loadTestProgram type-checks every package found under root (a
// testdata/prog/<name>/src directory) into a Program in dependency
// order, ready for summarizeProgram/buildCallGraph/runProgramAnalyzer. All
// packages are marked as targets.
func loadTestProgram(t *testing.T, root string) *Program {
	t.Helper()
	exports := stdlibExports(t)
	fset := token.NewFileSet()
	ti := &testImporter{
		fset:    fset,
		root:    root,
		pkgs:    make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
	ti.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var paths []string
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
			return err
		}
		rel, rerr := filepath.Rel(root, filepath.Dir(p))
		if rerr != nil {
			return rerr
		}
		ip := filepath.ToSlash(rel)
		if !seen[ip] {
			seen[ip] = true
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := ti.Import(p); err != nil {
			t.Fatalf("loading testdata package %s: %v", p, err)
		}
	}

	prog := &Program{}
	for _, pkg := range ti.done {
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog
}

// pkgByPath returns prog's package with the given import path, or nil.
func pkgByPath(prog *Program, path string) *Package {
	for _, pkg := range prog.Pkgs {
		if pkg.Path == path {
			return pkg
		}
	}
	return nil
}

type wantExpectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// parseWants extracts the quoted or backquoted regexps following "want "
// in a comment.
func parseWants(comment string) []string {
	i := strings.Index(comment, "want ")
	if i < 0 {
		return nil
	}
	rest := comment[i+len("want "):]
	var out []string
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			return out
		}
		switch rest[0] {
		case '`':
			j := strings.IndexByte(rest[1:], '`')
			if j < 0 {
				return out
			}
			out = append(out, rest[1:1+j])
			rest = rest[j+2:]
		case '"':
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return out
			}
			s, err := strconv.Unquote(q)
			if err != nil {
				return out
			}
			out = append(out, s)
			rest = rest[len(q):]
		default:
			return out
		}
	}
}

// runWantTest runs one analyzer over one testdata package and checks its
// diagnostics against the package's want comments, analysistest-style.
func runWantTest(t *testing.T, a *Analyzer, importPath string) {
	t.Helper()
	pkg := loadTestPackage(t, importPath)
	checkWants(t, []*Package{pkg}, runAnalyzer(a, pkg))
}

// runProgramWantTest runs one whole-program analyzer over the multi-
// package golden program under root and checks its diagnostics against
// want comments anywhere in the program.
func runProgramWantTest(t *testing.T, a *Analyzer, root string) {
	t.Helper()
	prog := loadTestProgram(t, root)
	sums := summarizeProgram(prog)
	graph := buildCallGraph(prog, sums)
	checkWants(t, prog.Pkgs, runProgramAnalyzer(a, prog, sums, graph))
}

// checkWants matches diagnostics against the want comments of the given
// packages: every diagnostic must match a want on its line, and every
// want must be consumed.
func checkWants(t *testing.T, pkgs []*Package, diags []Diagnostic) {
	t.Helper()
	var wants []*wantExpectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					for _, p := range parseWants(c.Text) {
						re, err := regexp.Compile(p)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, p, err)
						}
						wants = append(wants, &wantExpectation{file: pos.Filename, line: pos.Line, re: re, raw: p})
					}
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].line < wants[j].line })
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}
