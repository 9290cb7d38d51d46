package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCallGraphEngineDispatch pins the interface-dispatch resolution on
// the real tree: a vault controller's call to Engine.OnDemandServed
// must fan out to every engine implementation, or globalmut
// and detflow would silently skip the prefetcher zoo.
func TestCallGraphEngineDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module call graph in -short mode")
	}
	prog, err := loadProgram(filepath.Join("..", ".."), []string{"./internal/vault"})
	if err != nil {
		t.Fatal(err)
	}
	sums := summarizeProgram(prog)
	g := buildCallGraph(prog, sums)

	const method = "camps/internal/prefetch.(Engine).OnDemandServed"
	impls := g.impls[method]
	for _, engine := range []string{"(campsEngine)", "(baseEngine)", "(noneEngine)", "(hybridEngine)"} {
		found := false
		for _, impl := range impls {
			if strings.Contains(impl, engine) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("impls[%s] missing %s implementation; got %v", method, engine, impls)
		}
	}

	// And the vault package actually carries an interface call edge to
	// that method, so the dispatch is reachable from vault entry points.
	vault := sums.ByPkg["camps/internal/vault"]
	if vault == nil {
		t.Fatal("no summary for camps/internal/vault")
	}
	edge := false
	for i := range vault.Funcs {
		for _, c := range vault.Funcs[i].Calls {
			if c.Callee == method && c.Iface {
				edge = true
			}
		}
	}
	if !edge {
		t.Errorf("no interface call edge from vault to %s", method)
	}
}

// TestReachableFollowsCalls: the walk from an entry reaches every
// function its calls lead to, and records the chain that reached each.
func TestReachableFollowsCalls(t *testing.T) {
	prog := loadTestProgram(t, filepath.Join("testdata", "prog", "callgraph", "src"))
	sums := summarizeProgram(prog)
	g := buildCallGraph(prog, sums)

	reached := g.reachable([]string{"camps/internal/vault.(Controller).Submit"})
	if _, ok := reached["camps/internal/sim.Post"]; !ok {
		t.Error("sim.Post should be reached through Submit")
	}
	if _, ok := reached["camps/internal/tally.Bump"]; !ok {
		t.Error("tally.Bump should be reached through Submit")
	}
	if got := pathTo(reached, "camps/internal/tally.Bump"); got != "vault.(Controller).Submit → tally.Bump" {
		t.Errorf("pathTo = %q", got)
	}
}
