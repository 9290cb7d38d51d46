package lint

// SummarySet holds the facts of every package in a program.
type SummarySet struct {
	ByPkg map[string]*PackageSummary

	funcs map[string]*FuncSummary // symbol index over every package
}

// summarizeProgram computes the summary of every package in the program.
func summarizeProgram(prog *Program) *SummarySet {
	set := &SummarySet{ByPkg: make(map[string]*PackageSummary, len(prog.Pkgs))}
	for _, pkg := range prog.Pkgs {
		set.ByPkg[pkg.Path] = summarize(pkg)
	}
	set.funcs = make(map[string]*FuncSummary)
	for _, ps := range set.ByPkg {
		for i := range ps.Funcs {
			set.funcs[ps.Funcs[i].Sym] = &ps.Funcs[i]
		}
	}
	return set
}

// lookup returns the summary of one function symbol, or nil.
func (s *SummarySet) lookup(sym string) *FuncSummary {
	return s.funcs[sym]
}
