# Developer entry points. `make verify` mirrors the CI job exactly.

GO ?= go

# Third-party linters are version-pinned here (the single source CI
# installs from) so lint results are reproducible. The module itself has
# no dependencies, so the pins live in the Makefile rather than a
# tools.go: adding go.mod requirements just to version dev tools would
# put the whole build at the mercy of the network. Locally the tools are
# optional; campslint always runs.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build vet test race orchestration observability serve serve-smoke lint lint-tools fuzz-smoke fault-smoke perfbench-check bench-smoke verify bench figures clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The orchestration layer (scheduler, checkpoint store, context-threaded
# public API) is the most concurrency-sensitive code in the repo; vet and
# race-test it explicitly even when iterating on a subset of packages.
orchestration:
	$(GO) vet ./internal/exp/... ./internal/harness/... .
	$(GO) test -race ./internal/exp/... ./internal/harness/... .

# The observability layer crosses goroutines in exactly one place (the
# SSE stream server) and the campaign runner snapshots metrics from the
# scheduler goroutine; race-test both packages explicitly so a data race
# there cannot hide behind a cached ./... run.
observability:
	$(GO) test -race -count=1 ./internal/obs/... ./internal/exp/...

# The serving layer multiplexes tenants, goroutines, and fsync'd state;
# always race-test it uncached. The suite includes the 2000-job soak
# storm and the SIGKILL crash-recovery subprocess test (docs/SERVING.md).
serve:
	$(GO) test -race -count=1 ./internal/serve/...

# End-to-end daemon self-test: boots an ephemeral campserve, drives a
# real campaign over HTTP, and verifies completion, SSE terminal events,
# and byte-identical cache-hit results before draining.
serve-smoke:
	$(GO) run ./cmd/campserve -smoke >/dev/null

# campslint enforces the determinism/concurrency invariants (see
# docs/LINTING.md); -allow-budget holds the //lint:allow-* count to the
# committed .campslint-budget baseline. staticcheck and govulncheck run
# when installed (`make lint-tools`), and always in CI.
lint:
	$(GO) run ./cmd/campslint -allow-budget ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make lint-tools installs $(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (make lint-tools installs $(GOVULNCHECK_VERSION))"; \
	fi

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Short deterministic-budget fuzz runs over the parsers that ingest
# external bytes: the checkpoint store, the compact trace format, and the
# fault-spec grammar.
fuzz-smoke:
	$(GO) test ./internal/exp -run=^$$ -fuzz=FuzzStoreRepair -fuzztime=10s
	$(GO) test ./internal/trace -run=^$$ -fuzz=FuzzCompactDecode -fuzztime=10s
	$(GO) test ./internal/fault -run=^$$ -fuzz=FuzzParseSpec -fuzztime=10s

# End-to-end degraded-memory smoke: a full campsim run with every fault
# class at a nonzero rate and the invariant checker armed. Exercises the
# whole injection path (links, vaults, buffer, banks) in ~10s of wall
# clock; any accounting drift under faults aborts with a typed error.
fault-smoke:
	$(GO) run ./cmd/campsim -mix HM1 -scheme CAMPS-MOD -instr 60000 -warmup 5000 \
		-faults 'linkcrc=1e-3,stall=1e-4,poison=2e-3,bankfail=100us,bankfor=2us' \
		-check -timeout 10s >/dev/null

# perfbench/ is its own Go module (it points back here through a replace
# directive), so the root `go build ./...` never compiles it. Vet and test
# it against the current tree, so an engine or cache API change cannot
# break the benchmark unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# One iteration of each per-layer microbenchmark (event kernel, cache
# hierarchy, prefetch engines and conflict table, saturated vault
# scheduler, one campaign row through exp.Run), so they keep compiling
# and running; timing them is a separate, deliberate step.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EngineSchedule|EngineSteadyQueue|HierarchyAccess|OnDemandServed|VaultSchedule|GridMix|ConflictTable' -benchtime 1x ./internal/...

# lint-tools is CI's install step for the pinned linters that `make lint`
# runs when present; every other CI step is one of these targets.
verify: build vet race orchestration observability serve serve-smoke lint fuzz-smoke fault-smoke perfbench-check bench-smoke

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# The simulator's own speed is measured by the benchmark in perfbench/
# (bash perfbench/run.sh; see docs/PERFORMANCE.md).

figures:
	$(GO) run ./cmd/campbench

clean:
	$(GO) clean ./...
