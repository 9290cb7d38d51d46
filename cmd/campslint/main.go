// Command campslint statically enforces the simulator's determinism and
// concurrency invariants. Per-package analyzers check that no wall
// clock or global RNG reaches simulation packages, no map-iteration
// order leaks into results, context is threaded through every
// orchestration entry point, and ticks never mix with time.Duration.
// Whole-program analyzers walk a cross-package call graph (including
// prefetch.Engine interface dispatch) built from per-package facts:
// globalmut certifies that mutable package-level state is written only
// by its initializer or an init function, and detflow that no
// nondeterminism source hides behind a cross-package helper called from
// simulation code.
//
// Usage:
//
//	campslint [-version] [packages]
//
// campslint always runs the whole suite and reports every finding; there
// is no suppression comment. Exit status is 0 when the tree is clean, 1
// when there are findings, and 2 on usage or load errors. See
// docs/LINTING.md for the analyzer catalogue.
package main

import (
	"os"

	"camps/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
