package lint

// Program is the whole-program view of one campslint run: every module
// package in the dependency closure, type-checked from source with one
// shared FileSet (each Package's Fset) and unified object identity. The
// per-package analyzers run over targets(); the whole-program analyzers
// (globalmut, detflow) consume the summaries and call graph built from
// all of Pkgs.
type Program struct {
	// Pkgs holds every source-checked module package in dependency
	// order: a package always follows its dependencies.
	Pkgs []*Package
}

// targets returns the packages matched by the load patterns, in
// dependency order. The per-package analyzers run only over these.
func (p *Program) targets() []*Package {
	var out []*Package
	for _, pkg := range p.Pkgs {
		if pkg.Target {
			out = append(out, pkg)
		}
	}
	return out
}
