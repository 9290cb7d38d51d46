package lint

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"camps/internal/cliutil"
)

// suite returns the full analyzer suite in stable order.
func suite() []*Analyzer {
	return []*Analyzer{
		CtxThread, DetFlow, GlobalMut, MapOrder, SimDeterminism, TickArith,
	}
}

// Exit codes of the campslint CLI.
const (
	exitClean    = 0 // no findings
	exitFindings = 1 // at least one finding
	exitUsage    = 2 // bad flags, or packages failed to load
)

// Main is the campslint CLI: it runs the whole analyzer suite over the
// packages matching the argument patterns (default ./...) and returns
// the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: campslint [-version] [packages]\n\nAnalyzers (see docs/LINTING.md):\n")
		for _, a := range suite() {
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		cliutil.PrintVersion(stdout, "campslint")
		return exitClean
	}
	return run("", fs.Args(), stdout, stderr)
}

// run loads the program matching patterns (default ./...) from dir
// ("" = current directory) in one pass, runs every analyzer —
// per-package analyzers over the target packages, whole-program
// analyzers over the full module closure via the facts layer and call
// graph — and prints the findings in target packages sorted, one per
// line as file:line:col: [analyzer] message.
func run(dir string, patterns []string, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := loadProgram(dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "campslint: %v\n", err)
		return exitUsage
	}
	pkgs := prog.targets()
	sums := summarizeProgram(prog)
	graph := buildCallGraph(prog, sums)
	targetFiles := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			targetFiles[pkg.Fset.File(f.Pos()).Name()] = true
		}
	}

	var diags []Diagnostic
	for _, a := range suite() {
		if a.RunProgram != nil {
			// The analysis spans the whole closure, but a finding is
			// reported only in a file of a target package.
			for _, d := range runProgramAnalyzer(a, prog, sums, graph) {
				if targetFiles[d.Pos.Filename] {
					diags = append(diags, d)
				}
			}
			continue
		}
		for _, pkg := range pkgs {
			diags = append(diags, runAnalyzer(a, pkg)...)
		}
	}
	sortDiagnostics(diags)
	for _, d := range diags {
		d.Pos.Filename = relPath(dir, d.Pos.Filename)
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "campslint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return exitFindings
	}
	return exitClean
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
