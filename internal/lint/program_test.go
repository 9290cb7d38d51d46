package lint

import (
	"path/filepath"
	"testing"
)

// TestLoadProgramSharedObjectIdentity pins the property the facts layer
// and the call graph stand on: every module package in the closure is
// type-checked from source into ONE *types.Package, so an object seen
// at a call site in one package is the same object as its definition in
// another.
func TestLoadProgramSharedObjectIdentity(t *testing.T) {
	prog, err := LoadProgram(filepath.Join("..", ".."), []string{"./internal/vault"})
	if err != nil {
		t.Fatal(err)
	}
	vault := prog.ByPath["camps/internal/vault"]
	if vault == nil {
		t.Fatal("vault package not loaded")
	}
	if !vault.Target {
		t.Error("matched package should be a target")
	}
	pf := prog.ByPath["camps/internal/prefetch"]
	if pf == nil {
		t.Fatal("dependency camps/internal/prefetch not in the program closure")
	}
	if pf.Target {
		t.Error("dependency-only package should not be a target")
	}

	found := false
	for _, imp := range vault.Types.Imports() {
		if imp.Path() == "camps/internal/prefetch" {
			found = true
			if imp != pf.Types {
				t.Error("vault imports a different *types.Package than the source-checked prefetch: object identity is broken")
			}
		}
	}
	if !found {
		t.Error("vault should import camps/internal/prefetch")
	}

	targets := prog.Targets()
	if len(targets) != 1 || targets[0].Path != "camps/internal/vault" {
		t.Errorf("Targets() = %v, want exactly camps/internal/vault", targets)
	}

	idx := make(map[string]int)
	for i, p := range prog.Pkgs {
		idx[p.Path] = i
	}
	if idx["camps/internal/prefetch"] > idx["camps/internal/vault"] {
		t.Error("Pkgs not in dependency order: prefetch must precede vault")
	}
}

// TestProgramSuppression pins the program-wide directive index: a
// reasoned directive in a dependency package suppresses at its line and
// the line below, nowhere else.
func TestProgramSuppression(t *testing.T) {
	prog := loadTestProgram(t, filepath.Join("testdata", "prog", "detflow", "src"))
	util := prog.ByPath["camps/internal/util"]
	if util == nil {
		t.Fatal("util package not loaded")
	}
	// The allow-wallclock directive sits on the time.Now line inside
	// Allowed; find it through the package's own directives.
	dirs := parseDirectives(util.Fset, util.Files)
	if len(dirs) != 1 || dirs[0].name != "wallclock" {
		t.Fatalf("want exactly one wallclock directive in util, got %v", dirs)
	}
	pos := util.Fset.Position(dirs[0].pos)
	if !prog.suppressedAt(pos, "wallclock") {
		t.Error("directive line should be suppressed for its own name")
	}
	if !prog.suppressedAt(pos, "detflow", "wallclock") {
		t.Error("suppression should hold for any of the queried names")
	}
	if prog.suppressedAt(pos, "detflow") {
		t.Error("a wallclock directive must not suppress detflow alone")
	}
	two := pos
	two.Line += 2
	if prog.suppressedAt(two, "wallclock") {
		t.Error("suppression must not reach two lines below the directive")
	}
}
