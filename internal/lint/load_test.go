package lint

import (
	"path/filepath"
	"testing"
)

func TestLoadPackagesTypeChecksFromSource(t *testing.T) {
	prog, err := loadProgram(filepath.Join("..", ".."), []string{"./internal/obs"})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := prog.targets()
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "camps/internal/obs" {
		t.Errorf("Path = %q, want camps/internal/obs", p.Path)
	}
	if len(p.Files) == 0 {
		t.Error("no syntax trees loaded")
	}
	if p.Types == nil || p.Types.Scope().Lookup("Registry") == nil {
		t.Error("type information missing: obs.Registry not in package scope")
	}
	if len(p.Info.Defs) == 0 || len(p.Info.Uses) == 0 {
		t.Error("types.Info not populated")
	}
}

func TestLoadPackagesBadPattern(t *testing.T) {
	if _, err := loadProgram(filepath.Join("..", ".."), []string{"./does/not/exist"}); err == nil {
		t.Fatal("expected an error for a nonexistent package pattern")
	}
}
