package lint

import (
	"path/filepath"
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
	if ds := runAnalyzer(SimDeterminism, pkg); len(ds) != 0 {
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
	if ds := runAnalyzer(CtxThread, pkg); len(ds) != 0 {
		t.Fatalf("expected no ctxthread findings outside orchestration packages, got %v", ds)
	}
}

func TestTickArith(t *testing.T) {
	runWantTest(t, TickArith, "tickarith")
}

func TestGlobalMutProgram(t *testing.T) {
	runProgramWantTest(t, GlobalMut, filepath.Join("testdata", "prog", "globalmut", "src"))
}

func TestDetFlowProgram(t *testing.T) {
	runProgramWantTest(t, DetFlow, filepath.Join("testdata", "prog", "detflow", "src"))
}
