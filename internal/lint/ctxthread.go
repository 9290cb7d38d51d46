package lint

import (
	"go/ast"
	"go/types"
)

// ctxPackages are the orchestration layers whose exported API must
// thread context.Context: the public root package, the campaign
// scheduler and the campaign service. Simulation internals are
// event-driven and single-goroutine, so they are exempt; cancellation
// reaches them through sim.NewHaltWatcher instead.
var ctxPackages = map[string]bool{
	"camps":                true,
	"camps/internal/exp":   true,
	"camps/internal/serve": true,
}

// CtxThread flags exported functions in orchestration packages that
// launch goroutines or hard-code context.Background()/TODO() instead of
// accepting a context.Context.
var CtxThread = &Analyzer{
	Name: "ctxthread",
	Doc:  "flag exported orchestration functions that spawn work without accepting a context.Context",
	Run:  runCtxThread,
}

func runCtxThread(pass *Pass) {
	if !ctxPackages[pass.Pkg.Path()] {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if acceptsContext(pass.Info, fd) {
				continue
			}
			checkCtxFreeFunc(pass, fd)
		}
	}
}

func acceptsContext(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if t := info.TypeOf(field.Type); t != nil && namedType(t, "context", "Context") {
			return true
		}
	}
	return false
}

func checkCtxFreeFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.reportf(n.Pos(),
				"exported %s launches a goroutine but accepts no context.Context: callers cannot cancel it; add a ctx parameter",
				fd.Name.Name)
		case *ast.CallExpr:
			for _, arg := range n.Args {
				ac, ok := arg.(*ast.CallExpr)
				if !ok {
					continue
				}
				cf := funcOf(pass.Info, ac.Fun)
				if isPkgFunc(cf, "context", "Background") || isPkgFunc(cf, "context", "TODO") {
					pass.reportf(arg.Pos(),
						"exported %s passes context.%s but accepts no context.Context: accept and propagate the caller's ctx",
						fd.Name.Name, cf.Name())
				}
			}
		}
		return true
	})
}
