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
	prog, err := loadProgram(filepath.Join("..", ".."), []string{"./internal/vault"})
	if err != nil {
		t.Fatal(err)
	}
	vault := pkgByPath(prog, "camps/internal/vault")
	if vault == nil {
		t.Fatal("vault package not loaded")
	}
	if !vault.Target {
		t.Error("matched package should be a target")
	}
	pf := pkgByPath(prog, "camps/internal/prefetch")
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

	targets := prog.targets()
	if len(targets) != 1 || targets[0].Path != "camps/internal/vault" {
		t.Errorf("targets() = %v, want exactly camps/internal/vault", targets)
	}

	idx := make(map[string]int)
	for i, p := range prog.Pkgs {
		idx[p.Path] = i
	}
	if idx["camps/internal/prefetch"] > idx["camps/internal/vault"] {
		t.Error("Pkgs not in dependency order: prefetch must precede vault")
	}
}
