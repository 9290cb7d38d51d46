package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The facts layer: each package under analysis is distilled into one
// PackageSummary — per-function call edges, package-level writes, and
// nondeterminism sources, each with a resolved
// source position. The whole-program analyzers (globalmut, detflow) run
// entirely over these summaries joined by the call graph, so diagnostics
// in dependency packages can be reconstructed without their ASTs.
//
// Symbols name functions and variables as stable strings:
//
//	pkg/path.Func            package-level function
//	pkg/path.(Type).Method   method (pointer receivers collapse onto the type)
//	pkg/path.init@line       one file's init function
//	pkg/path.Var             package-level variable
//
// Known approximations, chosen so the summaries stay deterministic and
// cheap: calls through plain function values (fields, parameters) are
// not resolved — interface method calls are, via the CHA implementation
// index — and writes through a pointer previously taken from a global
// are not tracked. Both are documented in docs/LINTING.md.

// PackageSummary is one package's exported facts.
type PackageSummary struct {
	Package string        `json:"package"`
	Funcs   []FuncSummary `json:"funcs"`
}

// FuncSummary is the facts of one function (function literals fold into
// their enclosing declaration).
type FuncSummary struct {
	Sym      string         `json:"sym"`
	Pkg      string         `json:"pkg"`
	Pos      token.Position `json:"pos"`
	Exported bool           `json:"exported,omitempty"`
	IsInit   bool           `json:"is_init,omitempty"`

	Calls   []CallSite     `json:"calls,omitempty"`
	Writes  []GlobalWrite  `json:"writes,omitempty"`
	Sources []NondetSource `json:"sources,omitempty"`
}

// CallSite is one statically resolved call edge.
type CallSite struct {
	// Callee is the called function's symbol; for Iface calls it is the
	// interface method, resolved to implementations by the call graph.
	Callee string         `json:"callee"`
	Iface  bool           `json:"iface,omitempty"`
	Pos    token.Position `json:"pos"`
}

// GlobalWrite is one write whose destination roots at a package-level
// variable (an assignment, ++/--, or delete on it or anything reached
// through its fields/elements).
type GlobalWrite struct {
	Target string         `json:"target"`
	Op     string         `json:"op"`
	Pos    token.Position `json:"pos"`
}

// NondetSource is one direct nondeterminism source: a wall-clock read,
// a global-RNG call, map-iteration order escaping through a return
// without a sort, or a goroutine-ordering-dependent select.
type NondetSource struct {
	Kind   string         `json:"kind"` // "wallclock" | "globalrand" | "maporder" | "goroutine-order"
	Detail string         `json:"detail"`
	Pos    token.Position `json:"pos"`
}

// funcSym returns fn's stable symbol. The empty string means the
// function cannot be named (no package, e.g. error.Error).
func funcSym(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "" // receiver on an unnamed type
		}
		return fn.Pkg().Path() + ".(" + named.Obj().Name() + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// varSym returns the symbol of a package-level variable.
func varSym(v *types.Var) string {
	return v.Pkg().Path() + "." + v.Name()
}

// symPkg extracts the package path from a symbol.
func symPkg(sym string) string {
	if i := strings.Index(sym, ".("); i >= 0 {
		return sym[:i]
	}
	if i := strings.LastIndex(sym, "."); i >= 0 {
		return sym[:i]
	}
	return sym
}

// symBase returns the symbol's function name with any receiver, e.g.
// "(Controller).Submit" or "Register".
func symBase(sym string) string {
	return strings.TrimPrefix(sym, symPkg(sym)+".")
}

// summarize distills one package into its facts.
func summarize(pkg *Package) *PackageSummary {
	s := &PackageSummary{Package: pkg.Path}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s.Funcs = append(s.Funcs, summarizeFunc(pkg, fd))
		}
	}
	return s
}

func summarizeFunc(pkg *Package, fd *ast.FuncDecl) FuncSummary {
	pos := pkg.Fset.Position(fd.Name.Pos())
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	sym := funcSym(fn)
	isInit := fd.Recv == nil && fd.Name.Name == "init"
	if isInit || sym == "" {
		// init functions share a name; disambiguate by line.
		sym = fmt.Sprintf("%s.%s@%d", pkg.Path, fd.Name.Name, pos.Line)
	}
	fs := FuncSummary{
		Sym:      sym,
		Pkg:      pkg.Path,
		Pos:      pos,
		Exported: fd.Name.IsExported(),
		IsInit:   isInit,
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			summarizeCall(pkg, &fs, n)
		case *ast.SelectStmt:
			comms := 0
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				fs.Sources = append(fs.Sources, NondetSource{
					Kind:   "goroutine-order",
					Detail: fmt.Sprintf("select with %d communication cases resolves by goroutine scheduling order", comms),
					Pos:    pkg.Fset.Position(n.Pos()),
				})
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				recordGlobalWrite(pkg, &fs, lhs, "assign")
			}
		case *ast.IncDecStmt:
			recordGlobalWrite(pkg, &fs, n.X, "incdec")
		case *ast.RangeStmt:
			summarizeMapOrderEscape(pkg, &fs, fd, n)
		}
		return true
	})
	return fs
}

// summarizeCall records one call expression: a static or interface call
// edge, a delete() on a global map, or a stdlib nondeterminism source.
func summarizeCall(pkg *Package, fs *FuncSummary, call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "delete" && len(call.Args) > 0 {
				recordGlobalWrite(pkg, fs, call.Args[0], "delete")
			}
			return
		}
	}
	fn := funcOf(pkg.Info, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return // func value, builtin, or conversion: unresolved by design
	}
	pos := pkg.Fset.Position(call.Pos())
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		iface := types.IsInterface(sig.Recv().Type())
		if sym := funcSym(fn); sym != "" {
			fs.Calls = append(fs.Calls, CallSite{Callee: sym, Iface: iface, Pos: pos})
		}
		return
	}
	// Package-level function: record the edge and classify stdlib
	// nondeterminism sources (the same sets simdeterminism checks).
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			fs.Sources = append(fs.Sources, NondetSource{
				Kind:   "wallclock",
				Detail: "time." + fn.Name(),
				Pos:    pos,
			})
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			fs.Sources = append(fs.Sources, NondetSource{
				Kind:   "globalrand",
				Detail: fn.Pkg().Path() + "." + fn.Name(),
				Pos:    pos,
			})
		}
	}
	if sym := funcSym(fn); sym != "" {
		fs.Calls = append(fs.Calls, CallSite{Callee: sym, Pos: pos})
	}
}

// recordGlobalWrite classifies one write destination and records it when
// its root is a package-level variable (of this or any other package).
func recordGlobalWrite(pkg *Package, fs *FuncSummary, lhs ast.Expr, op string) {
	v := writeRoot(pkg.Info, lhs)
	if v == nil || v.Pkg() == nil {
		return
	}
	if v.Parent() != v.Pkg().Scope() {
		return // local, parameter, or receiver: owned by construction
	}
	fs.Writes = append(fs.Writes, GlobalWrite{
		Target: varSym(v),
		Op:     op,
		Pos:    pkg.Fset.Position(lhs.Pos()),
	})
}

// writeRoot unwinds selectors, indexes, stars, and parens to the
// variable a write lands on, or nil when the root is not a variable
// (e.g. the blank identifier or a function call result).
func writeRoot(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if _, isField := info.Selections[x]; isField {
				e = x.X
				continue
			}
			// Qualified identifier pkg.Var: the variable itself.
			if v, ok := info.Uses[x.Sel].(*types.Var); ok {
				return v
			}
			return nil
		case *ast.Ident:
			if v, ok := info.ObjectOf(x).(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// summarizeMapOrderEscape marks the function as a nondeterminism source
// when a range over a map appends to a slice declared outside the loop
// that is later returned without a sort: callers then observe
// map-iteration order. (The per-package maporder analyzer flags the
// append site itself; this fact lets detflow taint callers in other
// packages.)
func summarizeMapOrderEscape(pkg *Package, fs *FuncSummary, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	if t := pkg.Info.TypeOf(rs.X); t == nil {
		return
	} else if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pkg.Info, call) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pkg.Info.ObjectOf(id)
			if obj == nil || obj.Pos() == token.NoPos {
				continue
			}
			if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
				continue // loop-local: order dies with the iteration
			}
			if sortedAfter(pkg.Info, fd, rs, obj) {
				continue
			}
			if !returnsObject(pkg.Info, fd, obj) {
				continue
			}
			fs.Sources = append(fs.Sources, NondetSource{
				Kind:   "maporder",
				Detail: fmt.Sprintf("returns %s appended under a map range without a sort", id.Name),
				Pos:    pkg.Fset.Position(as.Pos()),
			})
		}
		return true
	})
}

// returnsObject reports whether fd returns obj: it appears in a return
// statement's results, or it is a named result (naked returns included).
func returnsObject(info *types.Info, fd *ast.FuncDecl, obj types.Object) bool {
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if info.ObjectOf(name) == obj {
					return true
				}
			}
		}
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return !found
		}
		for _, res := range ret.Results {
			if mentionsObject(info, res, obj) {
				found = true
			}
		}
		return !found
	})
	return found
}
