package lint

import (
	"go/ast"
	"go/types"
)

const obsPkgPath = "camps/internal/obs"

// StatsReg flags obs histograms that are constructed directly —
// obs.NewHistogram(), &obs.Histogram{} — and then only ever observed
// locally, never registered with a Registry, passed on, stored, or
// returned. Such a metric silently records into a value nothing will
// ever snapshot, which is how an instrumented subsystem drops out of the
// epoch tables without anyone noticing. Obtain histograms from
// Registry.Histogram instead; counters and gauges are registered as
// readers via CounterFunc/GaugeFunc.
var StatsReg = &Analyzer{
	Name:  "statsreg",
	Doc:   "flag obs metrics never registered and registry names that are not compile-time constants",
	Allow: "unregistered",
	Run:   runStatsReg,
}

func runStatsReg(pass *Pass) {
	if pass.Pkg.Path() == obsPkgPath {
		return // the registry implementation constructs metrics by design
	}
	for _, f := range pass.Files {
		checkMetricNames(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncMetrics(pass, fd)
		}
	}
}

// registryNameMethods are the Registry lookups whose first argument is a
// metric name.
var registryNameMethods = map[string]bool{
	"Histogram":   true,
	"CounterFunc": true,
	"GaugeFunc":   true,
}

// checkMetricNames flags Registry lookups whose metric name is not a
// compile-time constant. Dynamic names (fmt.Sprintf, variables, loop
// concatenations) make the metric namespace unenumerable — dashboards,
// goldens, and this very lint suite can no longer know the full metric
// set at build time — and additive registration silently merges any
// collision. Every span.*/pf.*/vault.* name in the tree is a literal or
// a named constant; this keeps it that way.
func checkMetricNames(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := funcOf(pass.Info, call.Fun)
		if fn == nil || !registryNameMethods[fn.Name()] {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || !namedType(sig.Recv().Type(), obsPkgPath, "Registry") {
			return true
		}
		if tv, ok := pass.Info.Types[call.Args[0]]; !ok || tv.Value == nil {
			pass.Reportf(call.Args[0].Pos(),
				"metric name passed to Registry.%s is not a compile-time constant: use a string literal or named constant so the metric namespace stays enumerable (or //lint:allow-unregistered <reason>)",
				fn.Name())
		}
		return true
	})
}

// creation is one direct histogram construction assigned to a local.
type creation struct {
	obj types.Object
	pos ast.Expr // the creating expression, for the report position
}

func checkFuncMetrics(pass *Pass, fd *ast.FuncDecl) {
	// Pass 1: find locals whose initializer (or any reassignment) is a
	// direct metric construction.
	created := map[types.Object]*creation{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if !metricCreation(pass.Info, rhs) {
					continue
				}
				id, isIdent := n.Lhs[i].(*ast.Ident)
				if !isIdent || id.Name == "_" {
					continue
				}
				if obj := pass.Info.ObjectOf(id); obj != nil {
					if _, seen := created[obj]; !seen {
						created[obj] = &creation{obj: obj, pos: rhs}
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) != len(n.Values) {
				return true
			}
			for i, v := range n.Values {
				if !metricCreation(pass.Info, v) {
					continue
				}
				if obj := pass.Info.ObjectOf(n.Names[i]); obj != nil {
					if _, seen := created[obj]; !seen {
						created[obj] = &creation{obj: obj, pos: v}
					}
				}
			}
		}
		return true
	})
	if len(created) == 0 {
		return
	}

	// Pass 2: a metric is fine if any use lets it reach a registry or an
	// owner — it is passed as an argument, returned, stored into a
	// structure, or reassigned from a Registry getter. Only metrics whose
	// every use is a local method call (h.ObserveInt) are reported.
	escaped := map[types.Object]bool{}
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.ObjectOf(id)
		c, tracked := created[obj]
		if !tracked || escaped[obj] {
			return true
		}
		if classifyMetricUse(pass.Info, id, c, stack) {
			escaped[obj] = true
		}
		return true
	})

	for _, c := range created {
		if !escaped[c.obj] {
			pass.Reportf(c.pos.Pos(),
				`obs.Histogram created but never registered: nothing will snapshot it; obtain it from a Registry (r.Histogram("name")) (or //lint:allow-unregistered <reason>)`)
		}
	}
}

// classifyMetricUse reports whether this use of a tracked metric lets it
// escape to an owner (true) or keeps it local (false).
func classifyMetricUse(info *types.Info, id *ast.Ident, c *creation, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X != id {
			return false
		}
		// x.Method(...) stays local; x.Method used as a value (e.g. passed
		// to CounterFunc) escapes.
		if len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == p {
				return false
			}
		}
		return true
	case *ast.AssignStmt:
		for i, lhs := range p.Lhs {
			if lhs != id {
				continue
			}
			if len(p.Lhs) != len(p.Rhs) {
				return true
			}
			rhs := p.Rhs[i]
			if rhs == c.pos {
				return false // the creation itself
			}
			if metricCreation(info, rhs) {
				return false // reassigned to another raw construction: still unregistered
			}
			// Reassigned from anything else — typically a Registry getter
			// (the conditional-instrumentation idiom) — counts as owned.
			return true
		}
		return true // appears on the RHS: flows somewhere else
	case *ast.ValueSpec:
		for i := range p.Names {
			if p.Names[i] == id && i < len(p.Values) && p.Values[i] == c.pos {
				return false
			}
		}
		return true
	default:
		// Call argument, return value, composite literal element, map/slice
		// store, channel send, comparison, &x, ...: the metric reaches code
		// that can register or own it.
		return true
	}
}

// metricCreation reports whether e directly constructs an obs.Histogram.
func metricCreation(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if fn := funcOf(info, e.Fun); isPkgFunc(fn, obsPkgPath, "NewHistogram") {
			return true
		}
		if id, ok := e.Fun.(*ast.Ident); ok && len(e.Args) == 1 {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
				return isHistogram(info.TypeOf(e.Args[0]))
			}
		}
	case *ast.UnaryExpr:
		if cl, ok := e.X.(*ast.CompositeLit); ok {
			return isHistogram(info.TypeOf(cl))
		}
	case *ast.CompositeLit:
		return isHistogram(info.TypeOf(e))
	}
	return false
}

func isHistogram(t types.Type) bool {
	return t != nil && namedType(t, obsPkgPath, "Histogram")
}
