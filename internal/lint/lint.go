// Package lint is campslint: a suite of static analyzers that enforce
// the simulator's determinism and concurrency invariants at build time.
//
// The checkpoint/resume store (internal/exp) asserts that a restored
// Results is bit-identical to a fresh run, and the paper's scheme
// comparisons are only meaningful if every scheme sees an identical
// event stream. Those invariants — no wall clock or global RNG in
// simulation code, no map-iteration order leaking into results, context
// threaded through every run path — used to live only in reviewers'
// heads. This package encodes them as compiler-checked rules.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, testdata with "want" comments) but is
// built on the standard library alone: packages are loaded with
// `go list -export` and type-checked with go/types, importing
// dependencies from the build cache's export data (see load.go). The
// repository has no third-party dependencies and the lint layer keeps it
// that way.
//
// Every finding is reported: there is no suppression comment. A finding
// is fixed by changing the code, or by changing an analyzer's scope (such
// as simPackages) in a reviewed diff.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. Exactly one of Run (a
// per-package check) and RunProgram (a whole-program check over the
// facts layer and call graph) is set.
type Analyzer struct {
	// Name identifies the analyzer in output.
	Name string
	// Doc is a one-line description shown in the usage text.
	Doc string
	// Run reports findings on one package through pass.reportf.
	Run func(pass *Pass)
	// RunProgram reports findings across the whole program through
	// pass.report; it sees every module package via the summaries and
	// the call graph.
	RunProgram func(pass *ProgramPass)
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// reportf records a finding at pos.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries the whole program through one whole-program
// analyzer: the loaded packages, their summaries (facts), and the call
// graph joining them.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	Sums     *SummarySet
	Graph    *CallGraph

	diags []Diagnostic
}

// report records a finding at an already-resolved position (facts carry
// token.Position, not token.Pos — they survive serialization).
func (p *ProgramPass) report(pos token.Position, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// runAnalyzer applies one per-package analyzer to one loaded package
// and returns its findings.
func runAnalyzer(a *Analyzer, pkg *Package) []Diagnostic {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	a.Run(pass)
	return pass.diags
}

// runProgramAnalyzer applies one whole-program analyzer and returns its
// findings.
func runProgramAnalyzer(a *Analyzer, prog *Program, sums *SummarySet, graph *CallGraph) []Diagnostic {
	pass := &ProgramPass{Analyzer: a, Prog: prog, Sums: sums, Graph: graph}
	a.RunProgram(pass)
	return pass.diags
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// inspectStack walks root depth-first, calling fn with every node and the
// stack of its ancestors (outermost first, root excluded from its own
// stack). Returning false skips the node's children.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// enclosingFunc returns the innermost function declaration or literal on
// the stack, or nil.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// funcOf resolves a call-ish expression to the package-level or method
// *types.Func it refers to, or nil.
func funcOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function path.name
// (methods never match).
func isPkgFunc(fn *types.Func, path, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == path && fn.Name() == name
}

// namedType reports whether t (after pointer indirection) is the named
// type path.name.
func namedType(t types.Type, path, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}
