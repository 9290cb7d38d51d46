package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags range statements over maps whose iteration order can
// leak into program output: bodies that append to a slice declared
// outside the loop (unless the slice is sorted later in the same
// function), write to an io.Writer or process stdout, or feed report
// tables. Map-to-map transforms, aggregations, and sorted-afterwards key
// collection are all fine.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration whose order leaks into slices, writers, or report output",
	Run:  runMapOrder,
}

// ioWriterIface is a structural io.Writer, built locally so the analyzer
// does not depend on the analyzed package importing io.
var ioWriterIface = func() *types.Interface {
	params := types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte])))
	results := types.NewTuple(
		types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
		types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
	)
	sig := types.NewSignatureType(nil, nil, nil, params, results, false)
	iface := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Write", sig)}, nil)
	iface.Complete()
	return iface
}()

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.Info.TypeOf(rs.X); t == nil {
				return true
			} else if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRangeBody(pass, rs, enclosingFunc(stack))
			return true
		})
	}
}

func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, fn ast.Node) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass.Info, call) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.Info.ObjectOf(id)
				if obj == nil || obj.Pos() == token.NoPos {
					continue
				}
				// Targets declared inside the loop body vanish each
				// iteration; only appends that outlive the loop carry its
				// order out.
				if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
					continue
				}
				if sortedAfter(pass.Info, fn, rs, obj) {
					continue
				}
				pass.reportf(n.Pos(),
					"appends to %s while ranging over a map: iteration order is randomized and leaks into the slice; sort %s afterwards or iterate sorted keys",
					id.Name, id.Name)
			}
		case *ast.CallExpr:
			reportOrderedSink(pass, n)
		}
		return true
	})
}

// reportOrderedSink flags calls inside a map-range body whose effect is
// ordered output: io.Writer writes, stdout prints, JSON encoding, or
// report-table rows.
func reportOrderedSink(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() == nil {
		switch {
		case fn.Pkg().Path() == "fmt" && (fn.Name() == "Fprint" || fn.Name() == "Fprintf" || fn.Name() == "Fprintln"):
			pass.reportf(call.Pos(),
				"fmt.%s inside range over a map: output order is nondeterministic; collect and sort keys first", fn.Name())
		case fn.Pkg().Path() == "fmt" && (fn.Name() == "Print" || fn.Name() == "Printf" || fn.Name() == "Println"):
			pass.reportf(call.Pos(),
				"fmt.%s inside range over a map: stdout order is nondeterministic; collect and sort keys first", fn.Name())
		case fn.Pkg().Path() == "io" && fn.Name() == "WriteString":
			pass.reportf(call.Pos(),
				"io.WriteString inside range over a map: output order is nondeterministic; collect and sort keys first")
		}
		return
	}
	// Method calls: writes on anything io.Writer-shaped, JSON encoding,
	// and stats.Table rows.
	recv := pass.Info.TypeOf(sel.X)
	if recv == nil {
		return
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		if implementsWriter(recv) {
			pass.reportf(call.Pos(),
				"%s.%s inside range over a map: write order is nondeterministic; collect and sort keys first",
				types.TypeString(recv, types.RelativeTo(pass.Pkg)), fn.Name())
		}
	case "Encode":
		if namedType(recv, "encoding/json", "Encoder") {
			pass.reportf(call.Pos(),
				"json.Encoder.Encode inside range over a map: record order is nondeterministic; collect and sort keys first")
		}
	case "AddRow":
		if namedType(recv, "camps/internal/stats", "Table") {
			pass.reportf(call.Pos(),
				"stats.Table.AddRow inside range over a map: report row order is nondeterministic; iterate sorted keys")
		}
	}
}

func implementsWriter(t types.Type) bool {
	if types.Implements(t, ioWriterIface) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), ioWriterIface)
	}
	return false
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether, later in the same function, obj is passed
// to a sort or slices call — the collect-then-sort idiom that makes the
// map-range append deterministic.
func sortedAfter(info *types.Info, fn ast.Node, rs *ast.RangeStmt, obj types.Object) bool {
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		cf := funcOf(info, call.Fun)
		if cf == nil || cf.Pkg() == nil {
			return true
		}
		if p := cf.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(info, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func mentionsObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}
