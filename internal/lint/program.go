package lint

import (
	"go/token"
)

// Program is the whole-program view of one campslint run: every module
// package in the dependency closure, type-checked from source with one
// shared FileSet (each Package's Fset) and unified object identity. The
// per-package analyzers run over Targets(); the whole-program analyzers
// (globalmut, detflow) consume the summaries and call graph built from
// all of Pkgs.
type Program struct {
	// Pkgs holds every source-checked module package in dependency
	// order: a package always follows its dependencies.
	Pkgs []*Package

	directives map[string][]directive // filename -> directives, lazily built
}

// Targets returns the packages matched by the load patterns, in
// dependency order. Diagnostics are only reported in these.
func (p *Program) Targets() []*Package {
	var out []*Package
	for _, pkg := range p.Pkgs {
		if pkg.Target {
			out = append(out, pkg)
		}
	}
	return out
}

// fileDirectives returns the lint directives of one source file,
// indexing every package in the program (not just targets) on first
// use: a suppression next to a finding in a dependency package must
// hold even when only a downstream package was matched.
func (p *Program) fileDirectives(filename string) []directive {
	if p.directives == nil {
		p.directives = make(map[string][]directive)
		for _, pkg := range p.Pkgs {
			for _, d := range parseDirectives(pkg.Fset, pkg.Files) {
				p.directives[d.file] = append(p.directives[d.file], d)
			}
		}
	}
	return p.directives[filename]
}

// suppressedAt reports whether a finding at pos is covered by a
// reasoned //lint:allow-<name> directive (same line or the line above),
// for any of the given directive names.
func (p *Program) suppressedAt(pos token.Position, names ...string) bool {
	for _, dir := range p.fileDirectives(pos.Filename) {
		if dir.reason == "" {
			continue
		}
		for _, name := range names {
			if dir.name == name && (pos.Line == dir.line || pos.Line == dir.line+1) {
				return true
			}
		}
	}
	return false
}
