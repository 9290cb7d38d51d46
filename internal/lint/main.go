package lint

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"camps/internal/cliutil"
)

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxThread, DetFlow, GlobalMut, MapOrder, SimDeterminism,
		StatsReg, TickArith,
	}
}

// Exit codes of the campslint CLI.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one finding (or allow budget exceeded)
	ExitUsage    = 2 // bad flags, unknown analyzer, or packages failed to load
)

// Main is the campslint CLI: it loads the program matching the argument
// patterns (default ./...) in one pass, runs the analyzer suite —
// per-package analyzers over the target packages, whole-program
// analyzers over the full module closure via the facts layer and call
// graph — and prints findings one per line as
// file:line:col: [analyzer] message. It returns the process exit code.
//
// Analyzers may be selected either with -only or with a first
// positional argument that is a comma-separated list of analyzer
// names, e.g.
//
//	campslint globalmut,detflow ./...
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: campslint [flags] [analyzer,...] [packages]\n\nAnalyzers (see docs/LINTING.md):\n")
		printAnalyzers(stderr)
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	var (
		dir         = fs.String("C", "", "run as if campslint were started in `dir`")
		only        = fs.String("only", "", "comma-separated `names` of analyzers to run (default all)")
		list        = fs.Bool("list", false, "list analyzers and exit")
		version     = fs.Bool("version", false, "print build information and exit")
		timing      = fs.Bool("timing", false, "report load and per-analyzer wall time on stderr")
		allowBudget = fs.Bool("allow-budget", false, "fail when //lint:allow-* use exceeds the committed baseline")
		budgetFile  = fs.String("budget-file", ".campslint-budget", "allow-budget baseline `file` (relative to -C)")
	)
	if err := fs.Parse(args); err != nil {
		return ExitUsage
	}
	if *version {
		cliutil.PrintVersion(stdout, "campslint")
		return ExitClean
	}
	if *list {
		printAnalyzers(stdout)
		return ExitClean
	}

	patterns := fs.Args()
	if *only == "" && len(patterns) > 0 && isAnalyzerList(patterns[0]) {
		*only = patterns[0]
		patterns = patterns[1:]
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(stderr, "campslint: %v\n", err)
		return ExitUsage
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	start := time.Now()
	prog, err := LoadProgram(*dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "campslint: %v\n", err)
		return ExitUsage
	}
	pkgs := prog.Targets()
	loadTime := time.Since(start)

	// The facts layer and call graph are built once and shared by every
	// whole-program analyzer; per-package analyzers never pay for them.
	var sums *SummarySet
	var graph *CallGraph
	var factsTime time.Duration
	if needsProgram(analyzers) {
		start = time.Now()
		sums = Summarize(prog)
		graph = BuildCallGraph(prog, sums)
		factsTime = time.Since(start)
	}

	var diags []Diagnostic
	type lap struct {
		name string
		d    time.Duration
	}
	var laps []lap
	for _, a := range analyzers {
		start = time.Now()
		if a.RunProgram != nil {
			diags = append(diags, RunProgramAnalyzer(a, prog, sums, graph)...)
		} else {
			for _, pkg := range pkgs {
				diags = append(diags, RunAnalyzer(a, pkg)...)
			}
		}
		laps = append(laps, lap{a.Name, time.Since(start)})
	}
	for _, pkg := range pkgs {
		diags = append(diags, CheckDirectives(pkg, All())...)
	}
	sortDiagnostics(diags)
	for _, d := range diags {
		d.Pos.Filename = relPath(*dir, d.Pos.Filename)
		fmt.Fprintln(stdout, d.String())
	}

	if *timing {
		fmt.Fprintf(stderr, "campslint: load %v (%d packages, %d targets)\n", loadTime.Round(time.Millisecond), len(prog.Pkgs), len(pkgs))
		if sums != nil {
			fmt.Fprintf(stderr, "campslint: facts+callgraph %v (%d packages)\n", factsTime.Round(time.Millisecond), len(sums.ByPkg))
		}
		for _, l := range laps {
			fmt.Fprintf(stderr, "campslint: %-16s %v\n", l.name, l.d.Round(time.Millisecond))
		}
	}

	budgetExceeded := false
	if *allowBudget {
		path := *budgetFile
		if *dir != "" && !filepath.IsAbs(path) {
			path = filepath.Join(*dir, path)
		}
		violations, err := checkAllowBudget(path, pkgs)
		if err != nil {
			fmt.Fprintf(stderr, "campslint: %v\n", err)
			return ExitUsage
		}
		for _, v := range violations {
			budgetExceeded = true
			fmt.Fprintf(stderr, "campslint: allow budget exceeded: %d uses of //lint:allow-%s, baseline permits %d (raise %s in the same change, or remove a suppression)\n",
				v.used, v.name, v.budget, *budgetFile)
		}
	}

	if len(diags) > 0 || budgetExceeded {
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "campslint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
		return ExitFindings
	}
	return ExitClean
}

// isAnalyzerList reports whether arg names only known analyzers, which
// lets the analyzer selection ride as the first positional argument.
func isAnalyzerList(arg string) bool {
	byName := make(map[string]bool)
	for _, a := range All() {
		byName[a.Name] = true
	}
	parts := strings.Split(arg, ",")
	for _, p := range parts {
		if !byName[strings.TrimSpace(p)] {
			return false
		}
	}
	return len(parts) > 0
}

func needsProgram(analyzers []*Analyzer) bool {
	for _, a := range analyzers {
		if a.RunProgram != nil {
			return true
		}
	}
	return false
}

func selectAnalyzers(only string) ([]*Analyzer, error) {
	all := All()
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	known := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		known = append(known, a.Name)
	}
	sort.Strings(known)
	var out []*Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only selected no analyzers")
	}
	return out, nil
}

func printAnalyzers(w io.Writer) {
	for _, a := range All() {
		fmt.Fprintf(w, "  %-16s %s (suppress: //lint:allow-%s <reason>)\n", a.Name, a.Doc, a.Allow)
	}
}

// relPath shortens abs for display when it sits under the working
// directory the run was anchored to.
func relPath(dir, abs string) string {
	base := dir
	if base == "" {
		base = "."
	}
	absBase, err := filepath.Abs(base)
	if err != nil {
		return abs
	}
	if rel, err := filepath.Rel(absBase, abs); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return abs
}
