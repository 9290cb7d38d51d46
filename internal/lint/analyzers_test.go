package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestSimDeterminism(t *testing.T) {
	runWantTest(t, SimDeterminism, "camps/internal/vault")
}

func TestSimDeterminismExpAllowlisted(t *testing.T) {
	// internal/exp is orchestration: its wall-clock use must produce zero
	// findings, so the testdata file carries no want comments.
	runWantTest(t, SimDeterminism, "camps/internal/exp")
}

func TestSimDeterminismIgnoresNonSimPackages(t *testing.T) {
	// The same wall-clock-heavy source analyzed under a non-simulation
	// import path is clean: package identity, not file content, selects
	// the rule.
	pkg := loadTestPackage(t, "camps/internal/exp")
	if ds := RunAnalyzer(SimDeterminism, pkg); len(ds) != 0 {
		t.Fatalf("expected no findings outside simulation packages, got %v", ds)
	}
}

func TestMapOrder(t *testing.T) {
	runWantTest(t, MapOrder, "maporder")
}

func TestCtxThread(t *testing.T) {
	runWantTest(t, CtxThread, "camps/internal/serve")
}

func TestCtxThreadIgnoresNonOrchestrationPackages(t *testing.T) {
	// maporder's package path is outside the orchestration set, so even
	// its exported functions are exempt from ctx threading.
	pkg := loadTestPackage(t, "maporder")
	if ds := RunAnalyzer(CtxThread, pkg); len(ds) != 0 {
		t.Fatalf("expected no ctxthread findings outside orchestration packages, got %v", ds)
	}
}

func TestTickArith(t *testing.T) {
	runWantTest(t, TickArith, "tickarith")
}

func TestStatsReg(t *testing.T) {
	runWantTest(t, StatsReg, "statsreg")
}

func TestGlobalMutProgram(t *testing.T) {
	runProgramWantTest(t, GlobalMut, filepath.Join("testdata", "prog", "globalmut", "src"))
}

func TestDetFlowProgram(t *testing.T) {
	runProgramWantTest(t, DetFlow, filepath.Join("testdata", "prog", "detflow", "src"))
}

func TestCheckDirectivesFlagsUnknownNames(t *testing.T) {
	pkg := loadTestPackage(t, "directives")
	ds := CheckDirectives(pkg, All())
	if len(ds) != 1 {
		t.Fatalf("expected exactly one unknown-directive finding, got %v", ds)
	}
	if got := ds[0].Message; !strings.Contains(got, "allow-wallclok") {
		t.Fatalf("finding should name the misspelled directive, got %q", got)
	}
}
