package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceExclusions lists the exported funcs and methods under internal/
// that stay exported although no non-test code in another package of the
// module uses them, each with its reason. Keys are the package path below
// camps/internal/, then the receiver type for a method, then the name.
var surfaceExclusions = map[string]string{
	// The framework API mirrors go/analysis, so analyzers and the
	// commands that run them read like the upstream ones.
	"lint.All":                 "go/analysis framework API",
	"lint.LoadProgram":         "go/analysis framework API",
	"lint.Program.Targets":     "go/analysis framework API",
	"lint.NewInfo":             "go/analysis framework API",
	"lint.RunAnalyzer":         "go/analysis framework API",
	"lint.RunProgramAnalyzer":  "go/analysis framework API",
	"lint.Summarize":           "go/analysis framework API",
	"lint.SummarySet.Func":     "go/analysis framework API",
	"lint.BuildCallGraph":      "go/analysis framework API",
	"lint.CallGraph.Reachable": "go/analysis framework API",
	"lint.CheckDirectives":     "go/analysis framework API",
	"lint.Pass.Reportf":        "go/analysis framework API",
	"lint.ProgramPass.Report":  "go/analysis framework API",

	// errors.Is and errors.As find these through interface literals of
	// package errors, which the program does not spell out.
	"sim.InvariantError.Unwrap":   "errors.Is unwraps through it",
	"workload.UnknownMixError.Is": "errors.Is matches ErrUnknownMix through it",

	// perfbench is a module of its own, so its calls are not loaded.
	"sim.Engine.After":   "perfbench's event-kernel microbenchmark schedules through it",
	"hmc.NewMapping":     "perfbench's vault microbenchmark decodes its miss stream with it",
	"hmc.Mapping.Decode": "perfbench's vault microbenchmark decodes its miss stream with it",

	// Other packages' tests.
	"sim.Engine.Step":       "the vault and hmc tests drive the engine one event at a time",
	"sim.Engine.RunUntil":   "the vault and hmc tests run the engine to a deadline",
	"trace.NewSliceReader":  "the fixture reader the trace, cpu and root tests share",
	"obs.NewTracer":         "the fault tests record a run's events",
	"obs.Tracer.Events":     "the root and fault tests read recorded events",
	"obs.StreamServer.Addr": "the root -serve-metrics test finds the ephemeral port StartStream bound",
	"obs.NewHistogram":      "campslint's statsreg analyzer checks calls of it",
	"trace.NewRNG":          "simdeterminism's diagnostic tells simulation packages to use trace.RNG",
	"trace.RNG.Intn":        "simdeterminism's diagnostic tells simulation packages to use trace.RNG",
	"trace.RNG.Int63n":      "simdeterminism's diagnostic tells simulation packages to use trace.RNG",
	"trace.RNG.Geometric":   "simdeterminism's diagnostic tells simulation packages to use trace.RNG",
	"trace.RNG.Float64":     "simdeterminism's diagnostic tells simulation packages to use trace.RNG",
	"trace.RNG.Uint64":      "simdeterminism's diagnostic tells simulation packages to use trace.RNG",
}

// TestExportedSurfaceHasCallers loads the module's non-test files and
// fails on every exported func or method under internal/ that no code in
// another package uses, unless surfaceExclusions names it. A method that
// implements an interface declared in the module, or one calledInterfaces
// lists, is used through that interface and is not reported; a method
// that matches only some other standard-library interface (an unused
// Close or Write, say) is. Generic methods count the uses of their
// instantiations. Unused exclusions fail too, so the table stays exact.
func TestExportedSurfaceHasCallers(t *testing.T) {
	prog, err := LoadProgram(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[*types.Func]bool)
	for _, pkg := range prog.Pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg() != pkg.Types {
				used[fn.Origin()] = true
			}
		}
	}
	implemented := make(map[*types.Func]bool)
	implementations(prog, calledInterfaces(prog), func(_, impl *types.Func) { implemented[impl] = true })

	var unused []string
	excluded := make(map[string]bool)
	for _, pkg := range prog.Pkgs {
		rel, ok := strings.CutPrefix(pkg.Path, "camps/internal/")
		if !ok {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				if used[fn] || implemented[fn] {
					continue
				}
				name := rel + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					name = rel + "." + receiverName(recv.Type()).Obj().Name() + "." + fn.Name()
				}
				if _, ok := surfaceExclusions[name]; ok {
					excluded[name] = true
					continue
				}
				unused = append(unused, name)
			}
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but no other package's non-test code uses it: delete it, unexport it, or add it to surfaceExclusions with its reason", name)
	}
	for name, reason := range surfaceExclusions {
		if reason == "" {
			t.Errorf("surfaceExclusions[%q] gives no reason", name)
		}
		if !excluded[name] {
			t.Errorf("surfaceExclusions[%q] names nothing the check would report: remove it", name)
		}
	}
}

// stdInterfaces are the standard-library interfaces the program hands its
// values to and the library then calls methods through: fmt and
// encoding/json look for the first three, and LoadProgram gives go/types
// an Importer.
var stdInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"go/types", "Importer"},
}

// calledInterfaces returns the interfaces, beyond the module's named
// ones, that a method can be used through although no module code calls
// it by name: error, stdInterfaces, and the interface literals the
// module's code spells out, such as a type assertion's
// interface{ CheckInvariant() error } or a function-local interface type.
func calledInterfaces(prog *Program) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	pkgs := make(map[string]*types.Package)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if pkgs[p.Path()] != nil {
			return
		}
		pkgs[p.Path()] = p
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range prog.Pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	for _, si := range stdInterfaces {
		if p := pkgs[si.pkg]; p != nil {
			out = append(out, p.Scope().Lookup(si.name).Type().Underlying().(*types.Interface))
		}
	}
	return out
}

// receiverName returns the named type of a method receiver, T or *T.
func receiverName(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}
