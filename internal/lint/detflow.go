package lint

import (
	"fmt"
	"path/filepath"
	"strings"
)

// DetFlow is the interprocedural complement to simdeterminism: that
// analyzer flags wall-clock and global-RNG use *written in* a
// simulation package, but a helper one call away — possibly in another
// package — can hide the same source, and nothing syntactic will see
// it. DetFlow propagates nondeterministic-source facts (wall-clock
// reads, global math/rand, map-iteration order escaping through an
// unsorted return, goroutine-ordering-dependent selects) bottom-up
// along the whole-program call graph, then reports every call site
// where a simulation package invokes a non-simulation module function
// that is transitively tainted, naming the chain down to the root
// source. Within simulation packages the source itself is already
// flagged (by simdeterminism, or by the boundary call site of the
// helper's own package), so only boundary crossings are reported.
var DetFlow = &Analyzer{
	Name:       "detflow",
	Doc:        "propagate nondeterminism taint along the call graph into simulation packages",
	RunProgram: runDetFlow,
}

// taintInfo records why a function is nondeterministic: the root source
// and the next symbol on the path toward it ("" when the source is in
// the function itself).
type taintInfo struct {
	src NondetSource
	via string
}

// revEdge is one reversed call edge for bottom-up propagation.
type revEdge struct{ caller string }

func runDetFlow(pass *ProgramPass) {
	// Deterministic function order: program package order, then
	// declaration order within each package.
	var all []*FuncSummary
	for _, pkg := range pass.Prog.Pkgs {
		ps := pass.Sums.ByPkg[pkg.Path]
		for i := range ps.Funcs {
			all = append(all, &ps.Funcs[i])
		}
	}

	callers := make(map[string][]revEdge)
	for _, fn := range all {
		for _, c := range fn.Calls {
			for _, callee := range pass.Graph.callees(c) {
				callers[callee] = append(callers[callee], revEdge{caller: fn.Sym})
			}
		}
	}

	// Seed with direct sources: a function's first source names its taint.
	taints := make(map[string]*taintInfo)
	var queue []string
	for _, fn := range all {
		if len(fn.Sources) > 0 && taints[fn.Sym] == nil {
			taints[fn.Sym] = &taintInfo{src: fn.Sources[0]}
			queue = append(queue, fn.Sym)
		}
	}
	for len(queue) > 0 {
		sym := queue[0]
		queue = queue[1:]
		for _, e := range callers[sym] {
			if taints[e.caller] == nil {
				taints[e.caller] = &taintInfo{src: taints[sym].src, via: sym}
				queue = append(queue, e.caller)
			}
		}
	}

	// Report boundary crossings: simulation package → tainted module
	// function outside the simulation set.
	for _, fn := range all {
		if !simPackages[fn.Pkg] {
			continue
		}
		for _, c := range fn.Calls {
			for _, callee := range pass.Graph.callees(c) {
				t := taints[callee]
				if t == nil {
					continue
				}
				cf := pass.Sums.lookup(callee)
				if cf == nil || simPackages[cf.Pkg] {
					continue // stdlib, or flagged in its own package
				}
				pass.report(c.Pos,
					"call from simulation package %s reaches a nondeterminism source: %s; hoist the source out of the simulation path or seed it explicitly",
					fn.Pkg, nondetChain(taints, callee))
				break // one report per call site, even with several tainted impls
			}
		}
	}
}

// nondetChain renders the taint path from sym down to its root source,
// e.g. "campstat.Stamp → time.Now (wall clock) at clock.go:12".
func nondetChain(taints map[string]*taintInfo, sym string) string {
	parts := []string{shortSym(sym)}
	t := taints[sym]
	for t.via != "" {
		parts = append(parts, shortSym(t.via))
		t = taints[t.via]
	}
	return strings.Join(parts, " → ") + " → " + describeSource(t.src)
}

var sourceKindLabel = map[string]string{
	"wallclock":       "wall clock",
	"globalrand":      "process-global RNG",
	"maporder":        "map-iteration order",
	"goroutine-order": "goroutine scheduling order",
}

func describeSource(src NondetSource) string {
	label := sourceKindLabel[src.Kind]
	if label == "" {
		label = src.Kind
	}
	return fmt.Sprintf("%s (%s) at %s:%d", src.Detail, label, filepath.Base(src.Pos.Filename), src.Pos.Line)
}
