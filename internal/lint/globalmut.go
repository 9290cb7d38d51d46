package lint

import "sort"

// runtimePkgs are the packages whose exported functions run during a
// simulation or while serving campaigns: the simulation set plus the
// public root package and the orchestration layers. Anything one of
// these can reach executes after init, on the paths that exp.Run's
// parallel cells and campserve's jobs run concurrently (DESIGN.md §9).
var runtimePkgs = func() map[string]bool {
	m := map[string]bool{
		"camps":              true,
		"camps/internal/exp": true,
	}
	for p := range simPackages {
		m[p] = true
	}
	return m
}()

// GlobalMut enforces the init-only write discipline for mutable
// package-level state: package-level variables may be written by their
// initializers and init functions, but never from a simulation or
// serving path. Read-only tables with a static initializer (the prefetch
// scheme table, exp's knob table) are the sanctioned idiom. The analyzer
// walks the call graph from every exported function of the runtime
// packages and flags every package-level write it can reach, naming the
// path.
var GlobalMut = &Analyzer{
	Name:       "globalmut",
	Doc:        "forbid package-level writes reachable from simulation or serving paths (init only)",
	RunProgram: runGlobalMut,
}

func runGlobalMut(pass *ProgramPass) {
	var entries []string
	for _, pkg := range pass.Prog.Pkgs {
		if !runtimePkgs[pkg.Path] {
			continue
		}
		ps := pass.Sums.ByPkg[pkg.Path]
		for i := range ps.Funcs {
			fn := &ps.Funcs[i]
			if fn.Exported && !fn.IsInit {
				entries = append(entries, fn.Sym)
			}
		}
	}
	reached := pass.Graph.reachable(entries)

	syms := make([]string, 0, len(reached))
	for sym := range reached {
		syms = append(syms, sym)
	}
	sort.Strings(syms)
	for _, sym := range syms {
		fn := pass.Sums.lookup(sym)
		if fn == nil || fn.IsInit {
			continue
		}
		for _, w := range fn.Writes {
			pass.report(w.Pos,
				"package-level %s written outside init: %s is reachable from runtime path %s; mutable globals may only be written during init",
				shortSym(w.Target), shortSym(sym), pathTo(reached, sym))
		}
	}
}
