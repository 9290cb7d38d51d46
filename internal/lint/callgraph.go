package lint

import (
	"go/types"
	"sort"
	"strings"
)

// CallGraph joins the per-package summaries into one whole-program
// graph. Static calls come straight from the facts; calls through an
// interface method are resolved class-hierarchy-analysis style — every
// named type declared anywhere in the module whose method set satisfies
// the interface contributes its method as a possible callee. That is
// what lets the analyzers see through the prefetch.Engine, sim daemon,
// and instrument-hook indirections: a call to Engine.OnDemandServed
// fans out to every engine's implementation.
type CallGraph struct {
	sums *SummarySet
	// impls maps an interface method symbol to the implementing
	// methods' symbols, sorted for deterministic traversal.
	impls map[string][]string
}

// BuildCallGraph indexes interface implementations across every package
// of the program and binds them to the summaries.
func BuildCallGraph(prog *Program, sums *SummarySet) *CallGraph {
	g := &CallGraph{sums: sums, impls: make(map[string][]string)}
	implementations(prog, nil, func(m, impl *types.Func) {
		mSym, iSym := funcSym(m), funcSym(impl)
		if mSym != "" && iSym != "" {
			g.impls[mSym] = append(g.impls[mSym], iSym)
		}
	})
	for sym, list := range g.impls {
		sort.Strings(list)
		g.impls[sym] = dedupSorted(list)
	}
	return g
}

// implementations calls visit(m, impl) for every method m of the named
// interfaces declared in the module, and of extra, and every method impl
// of a named concrete type declared in the module that implements m's
// interface.
func implementations(prog *Program, extra []*types.Interface, visit func(m, impl *types.Func)) {
	// Collect every named type declared in the module: concrete types
	// are implementation candidates, interface types dispatch targets.
	var concrete []types.Type
	ifaces := extra
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			} else {
				concrete = append(concrete, named)
			}
		}
	}

	for _, it := range ifaces {
		for _, t := range concrete {
			// Pointer receivers are in *T's method set; value receivers
			// in both. Checking *T covers either spelling.
			if !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, m.Pkg(), m.Name())
				if impl, ok := obj.(*types.Func); ok {
					visit(m, impl)
				}
			}
		}
	}
}

func dedupSorted(list []string) []string {
	out := list[:0]
	for i, s := range list {
		if i == 0 || s != list[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// callees resolves one call site to the function symbols it may reach.
func (g *CallGraph) callees(c CallSite) []string {
	if c.Iface {
		return g.impls[c.Callee]
	}
	return []string{c.Callee}
}

// step records how a function was first reached: from which caller,
// through which call site.
type step struct {
	from string
	site CallSite
}

// Reachable walks the graph breadth-first from the entry symbols and
// returns, for every reached symbol, the step that first reached it
// (entries map to a zero step). stop, when non-nil, prunes the walk:
// a symbol for which stop returns true is still *reached* (its own
// facts count) but its callees are not followed — that is how analyzers
// declare approved boundary interfaces. The walk is deterministic:
// entries are sorted, and call sites expand in summary order.
func (g *CallGraph) Reachable(entries []string, stop func(sym string) bool) map[string]step {
	sorted := append([]string(nil), entries...)
	sort.Strings(sorted)
	reached := make(map[string]step)
	queue := make([]string, 0, len(sorted))
	for _, e := range sorted {
		if _, ok := reached[e]; ok {
			continue
		}
		reached[e] = step{}
		queue = append(queue, e)
	}
	for len(queue) > 0 {
		sym := queue[0]
		queue = queue[1:]
		if stop != nil && stop(sym) {
			continue
		}
		fn := g.sums.Func(sym)
		if fn == nil {
			continue // outside the program (stdlib)
		}
		for _, c := range fn.Calls {
			for _, callee := range g.callees(c) {
				if _, ok := reached[callee]; ok {
					continue
				}
				reached[callee] = step{from: sym, site: c}
				queue = append(queue, callee)
			}
		}
	}
	return reached
}

// pathTo renders the call chain that reached sym, entry-first, e.g.
// "camps/internal/sim.Run → camps/internal/knob.Set".
func pathTo(reached map[string]step, sym string) string {
	var chain []string
	for cur := sym; ; {
		chain = append(chain, shortSym(cur))
		st, ok := reached[cur]
		if !ok || st.from == "" {
			break
		}
		cur = st.from
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " → ")
}

// shortSym trims the module path prefix for readable diagnostics:
// "camps/internal/vault.(Controller).Submit" → "vault.(Controller).Submit".
func shortSym(sym string) string {
	pkg := symPkg(sym)
	short := pkg
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		short = pkg[i+1:]
	}
	return short + "." + symBase(sym)
}
