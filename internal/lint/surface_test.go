package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceExclusions lists the exported funcs and methods under internal/
// that stay exported although no non-test code in another package of the
// module uses them, each with its reason. Keys are the package path below
// camps/internal/, then the receiver type for a method, then the name.
var surfaceExclusions = map[string]string{
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
	prog, err := loadProgram(filepath.Join("..", ".."), []string{"./..."})
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

// registryNameMethods are the obs.Registry methods whose first argument
// is a metric name.
var registryNameMethods = map[string]bool{"Histogram": true, "CounterFunc": true, "GaugeFunc": true}

// TestMetricsComeFromRegistry loads the module's non-test files and fails
// on a metric that can drop out of the epoch snapshots or the metric
// namespace unnoticed: a name passed to Registry.Histogram, CounterFunc or
// GaugeFunc that is not a compile-time constant, and an obs.Histogram
// built outside internal/obs (a composite literal, new, or a non-pointer
// variable, field or parameter), which no registry snapshots. Every
// histogram comes from Registry.Histogram; counters and gauges are
// registered as reader functions. internal/obs itself, which implements
// the registry and names its per-cause histograms from a table of
// literals, is not checked.
func TestMetricsComeFromRegistry(t *testing.T) {
	prog, err := loadProgram(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	const obsPath = "camps/internal/obs"
	isHistogram := func(t types.Type) bool { // by value, not *obs.Histogram
		_, ptr := t.(*types.Pointer)
		return !ptr && namedType(t, obsPath, "Histogram")
	}
	var findings []string
	for _, pkg := range prog.Pkgs {
		if pkg.Path == obsPath {
			continue
		}
		report := func(pos token.Pos, msg string) {
			findings = append(findings, pkg.Fset.Position(pos).String()+": "+msg)
		}
		for _, obj := range pkg.Info.Defs {
			if v, ok := obj.(*types.Var); ok && isHistogram(v.Type()) {
				report(v.Pos(), v.Name()+" holds an obs.Histogram by value: take a *obs.Histogram from Registry.Histogram")
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if isHistogram(pkg.Info.TypeOf(n)) {
						report(n.Pos(), "obs.Histogram literal: take it from Registry.Histogram")
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) == 1 {
						if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "new" && isHistogram(pkg.Info.TypeOf(n.Args[0])) {
							report(n.Pos(), "new(obs.Histogram): take it from Registry.Histogram")
						}
					}
					fn := funcOf(pkg.Info, n.Fun)
					if fn == nil || !registryNameMethods[fn.Name()] || len(n.Args) == 0 {
						break
					}
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && namedType(recv.Type(), obsPath, "Registry") &&
						pkg.Info.Types[n.Args[0]].Value == nil {
						report(n.Args[0].Pos(), "metric name passed to Registry."+fn.Name()+" is not a compile-time constant: use a string literal or named constant")
					}
				}
				return true
			})
		}
	}
	sort.Strings(findings)
	for _, msg := range findings {
		t.Error(msg)
	}
}

// stdInterfaces are the standard-library interfaces the program hands its
// values to and the library then calls methods through: fmt and
// encoding/json look for the first three, and loadProgram gives go/types
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

// fieldExclusions lists the struct fields under internal/ that
// TestStructFieldsAreRead would report but that stay, each with its
// reason. Keys are the package path below camps/internal/, then the
// struct type, then the field; a key without the field covers every
// field of the type.
var fieldExclusions = map[string]string{
	// perfbench is a module of its own, so its uses are not loaded.
	"prefetch.Request.Write": "perfbench's vault and prefetch layer benchmarks set it",

	"report.key": "a map key, read through ==",

	// Options that carry the whole hardware description to every run
	// they start; no simulation component holds them.
	"exp.Options.System":  "the campaign's base config, copied into each cell's RunConfig",
	"serve.Config.System": "the server's base config, handed to every job's campaign",
	"serve.Server.cfg":    "the server's Config, read once per job; not on a simulation path",
}

// TestStructFieldsAreRead loads the module's non-test files and fails on
// every struct field declared under internal/ that no non-test code
// reads, unless fieldExclusions names it. Assigning to a field, ++/--
// on it, setting it in a composite literal, and calling a method that
// only stores into its receiver (a counter's Inc or Add) on it are
// writes, not reads. encoding/json reads every exported field of a
// struct with a json tag on any field, unless the field's tag is "-".
// The test also fails on any struct under internal/, outside
// internal/config, that holds a config.Config by value: a component
// copies only the config values it reads, so a change to Config cannot
// move a hot struct's fields. Unused exclusions fail too, so the table
// stays exact.
func TestStructFieldsAreRead(t *testing.T) {
	prog, err := loadProgram(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	read := fieldReads(prog)

	var findings []string
	excluded := make(map[string]bool)
	for _, pkg := range prog.Pkgs {
		rel, ok := strings.CutPrefix(pkg.Path, "camps/internal/")
		if !ok {
			continue
		}
		for _, f := range pkg.Files {
			structFields(rel, f, func(owner string, st *ast.StructType, field *ast.Field, id *ast.Ident) {
				v := pkg.Info.Defs[id].(*types.Var)
				name := owner + "." + id.Name
				var problem string
				switch {
				case rel != "config" && holdsConfig(v.Type()):
					problem = "holds a config.Config by value: keep only the config values it reads"
				case !read[v] && !jsonReads(st, field, id):
					problem = "is never read by non-test code: delete it"
				default:
					return
				}
				for _, key := range []string{name, owner} {
					if _, ok := fieldExclusions[key]; ok {
						excluded[key] = true
						return
					}
				}
				findings = append(findings, name+" "+problem+", or add it to fieldExclusions with its reason")
			})
		}
	}
	sort.Strings(findings)
	for _, msg := range findings {
		t.Error(msg)
	}
	for name, reason := range fieldExclusions {
		if reason == "" {
			t.Errorf("fieldExclusions[%q] gives no reason", name)
		}
		if !excluded[name] {
			t.Errorf("fieldExclusions[%q] names nothing the check would report: remove it", name)
		}
	}
}

// fieldReads returns the struct fields that the program's code reads:
// every use of a field that writtenFields does not count as a write, and
// every embedded field a promoted selection passes through. Generic
// fields are keyed by their origin.
func fieldReads(prog *Program) map[*types.Var]bool {
	sinks := make(map[*types.Func]bool)
	written := writtenFields(prog, sinks)
	for addSinks(prog, written, sinks) {
		written = writtenFields(prog, sinks)
	}
	read := make(map[*types.Var]bool)
	for _, pkg := range prog.Pkgs {
		for id, obj := range pkg.Info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
				read[v.Origin()] = true
			}
		}
		for _, sel := range pkg.Info.Selections {
			typ := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				if p, ok := typ.Underlying().(*types.Pointer); ok {
					typ = p.Elem()
				}
				fv := typ.Underlying().(*types.Struct).Field(i)
				read[fv.Origin()] = true
				typ = fv.Type()
			}
		}
	}
	return read
}

// writtenFields returns the field selectors and composite-literal keys
// that store into a field without reading it: the target of an
// assignment or ++/--, a literal's key, and the receiver of a call to one
// of sinks. Storing into x.f.g, or x.f[i] of an array, also writes f
// while f is a value, not a pointer.
func writtenFields(prog *Program, sinks map[*types.Func]bool) map[*ast.Ident]bool {
	written := make(map[*ast.Ident]bool)
	for _, pkg := range prog.Pkgs {
		var write func(e ast.Expr)
		write = func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if sel := pkg.Info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
					written[e.Sel] = true
					if _, ptr := pkg.Info.TypeOf(e.X).Underlying().(*types.Pointer); !ptr && len(sel.Index()) == 1 {
						write(e.X)
					}
				}
			case *ast.IndexExpr:
				if _, arr := pkg.Info.TypeOf(e.X).Underlying().(*types.Array); arr {
					write(e.X)
				}
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written[id] = true
							}
						}
					}
				case *ast.CallExpr:
					fun, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
					if !ok {
						break
					}
					if sel := pkg.Info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal &&
						len(sel.Index()) == 1 && sinks[sel.Obj().(*types.Func).Origin()] {
						if _, ptr := pkg.Info.TypeOf(fun.X).Underlying().(*types.Pointer); !ptr {
							write(fun.X)
						}
					}
				}
				return true
			})
		}
	}
	return written
}

// addSinks adds to sinks every method of the module that only stores
// into its receiver, such as a counter's Inc: a pointer receiver, no
// results, and every use of the receiver in the body a written field.
// Calling a sink on a field value writes the field. It reports whether
// it added any.
func addSinks(prog *Program, written map[*ast.Ident]bool, sinks map[*types.Func]bool) bool {
	added := false
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil || fd.Type.Results != nil || len(fd.Recv.List[0].Names) == 0 {
					continue
				}
				if _, ptr := fd.Recv.List[0].Type.(*ast.StarExpr); !ptr {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				recv := pkg.Info.Defs[fd.Recv.List[0].Names[0]]
				if sinks[fn] || recv == nil {
					continue
				}
				uses, stores := 0, 0
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if pkg.Info.Uses[n] == recv {
							uses++
						}
					case *ast.SelectorExpr:
						if id, ok := n.X.(*ast.Ident); ok && pkg.Info.Uses[id] == recv && written[n.Sel] {
							stores++
						}
					}
					return true
				})
				if uses > 0 && uses == stores {
					sinks[fn], added = true, true
				}
			}
		}
	}
	return added
}

// structFields calls fn for every field of every struct type declared in
// f, named types and anonymous ones alike. owner names the struct: the
// package, then the type name, or the enclosing declaration and field
// names for an anonymous struct.
func structFields(rel string, f *ast.File, fn func(owner string, st *ast.StructType, field *ast.Field, id *ast.Ident)) {
	var visit func(owner string, n ast.Node)
	visit = func(owner string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				visit(rel+"."+n.Name.Name, n.Type)
				return false
			case *ast.StructType:
				for _, field := range n.Fields.List {
					names := field.Names
					if len(names) == 0 {
						names = []*ast.Ident{embeddedName(field.Type)}
					}
					for _, id := range names {
						fn(owner, n, field, id)
						visit(owner+"."+id.Name, field.Type)
					}
				}
				return false
			}
			return true
		})
	}
	for _, d := range f.Decls {
		owner := rel
		switch d := d.(type) {
		case *ast.FuncDecl:
			owner += "." + d.Name.Name
		case *ast.GenDecl:
			if len(d.Specs) > 0 {
				if vs, ok := d.Specs[0].(*ast.ValueSpec); ok {
					owner += "." + vs.Names[0].Name
				}
			}
		}
		visit(owner, d)
	}
}

// embeddedName returns the identifier an embedded field's type declares
// the field under: T, *T, pkg.T or T[Args].
func embeddedName(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return embeddedName(e.X)
	case *ast.IndexListExpr:
		return embeddedName(e.X)
	}
	return e.(*ast.Ident)
}

// jsonReads reports whether encoding/json reads field id of st: st is a
// wire type (some field has a json tag), id is exported, and its tag
// does not exclude it.
func jsonReads(st *ast.StructType, field *ast.Field, id *ast.Ident) bool {
	wire := false
	for _, f := range st.Fields.List {
		if _, ok := jsonTag(f); ok {
			wire = true
		}
	}
	name, _ := jsonTag(field)
	return wire && id.IsExported() && name != "-"
}

// jsonTag returns the field's json tag and whether it has one.
func jsonTag(field *ast.Field) (string, bool) {
	if field.Tag == nil {
		return "", false
	}
	tag, _ := strconv.Unquote(field.Tag.Value)
	return reflect.StructTag(tag).Lookup("json")
}

// holdsConfig reports whether a value of type t stores a config.Config
// inline: as itself, or inside a struct or array it holds by value.
func holdsConfig(t types.Type) bool {
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == "camps/internal/config" && n.Obj().Name() == "Config" {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsConfig(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return holdsConfig(u.Elem())
	}
	return false
}
