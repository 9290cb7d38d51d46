// Command campslint statically enforces the simulator's determinism and
// concurrency invariants. Per-package analyzers check that no wall
// clock or global RNG reaches simulation packages, no map-iteration
// order leaks into results, context is threaded through every
// orchestration entry point, ticks never mix with time.Duration, and
// obs metrics are registered. Whole-program analyzers walk a
// cross-package call graph (including prefetch.Engine interface
// dispatch) built from per-package facts: globalmut certifies that
// mutable package-level state is written only during init or
// Register-at-init, and detflow that no
// nondeterminism source hides behind a cross-package helper called
// from simulation code.
//
// Usage:
//
//	campslint [flags] [analyzer,...] [packages]
//
// The analyzer selection may ride as the first positional argument
// (e.g. `campslint globalmut,detflow ./...`) or via -only.
// -timing reports load, facts+call-graph, and per-analyzer wall time;
// -allow-budget fails the run when //lint:allow-* use exceeds the
// committed .campslint-budget baseline.
//
// Exit status is 0 when the tree is clean, 1 when there are findings
// or the allow budget is exceeded, and 2 on usage or load errors. See
// docs/LINTING.md for the analyzer catalogue and the //lint:allow-*
// escape hatches.
package main

import (
	"os"

	"camps/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
