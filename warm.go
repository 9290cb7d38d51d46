package camps

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"camps/internal/cache"
	"camps/internal/config"
	"camps/internal/trace"
)

// WarmKey identifies the functional warmup a RunConfig asks for. It covers
// every field that shapes the post-warmup cache hierarchy or trace
// generators, so runs with equal keys start their measured region from
// identical state whatever their scheme, cube, fault or observability
// settings. Keys are comparable with ==.
type WarmKey struct {
	mix        string
	benchmarks string
	seed       uint64
	warmupRefs uint64
	cores      int
	l1, l2, l3 config.CacheLevel
}

// WarmKey returns the key of rc's functional warmup, taken after defaults
// apply. It is meaningless for runs that supply Readers.
func (rc RunConfig) WarmKey() WarmKey {
	rc.applyDefaults()
	return WarmKey{
		mix:        rc.Mix.ID,
		benchmarks: strings.Join(rc.Mix.Benchmarks, ","),
		seed:       rc.Seed,
		warmupRefs: rc.WarmupRefs,
		cores:      rc.System.Processor.Cores,
		l1:         rc.System.L1,
		l2:         rc.System.L2,
		l3:         rc.System.L3,
	}
}

// WarmState is what a run's functional warmup leaves behind: the cache
// hierarchy, with its contents, LRU order and counters, and the per-core
// trace generators, positioned where the measured region starts. It is the
// simulator's analogue of the paper's gem5 checkpoint: build it once with
// Warm, then start every run that shares its WarmKey from a Clone through
// RunConfig.Warm. A run takes over the state it is given, so one state
// serves one run.
type WarmState struct {
	key  WarmKey
	hier *cache.Hierarchy
	gens []*trace.Generator
}

// Warm runs rc's functional warmup and returns its end state. It validates
// rc as RunContext does; rc must select a Mix, since caller-supplied
// Readers cannot be replayed (ErrInvalidConfig). Cancelling ctx abandons
// the warmup with an error wrapping ctx.Err().
func Warm(ctx context.Context, rc RunConfig) (*WarmState, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("camps: warmup cancelled before start: %w", err)
	}
	rc.applyDefaults()
	if err := rc.validate(); err != nil {
		return nil, err
	}
	if rc.Readers != nil {
		return nil, &apiError{
			msg:  "camps: a warm state is built from a Mix, not from Readers",
			refs: []error{ErrInvalidConfig},
		}
	}
	hier, gens, _, err := warm(ctx, rc)
	if err != nil {
		return nil, err
	}
	return &WarmState{key: rc.WarmKey(), hier: hier, gens: gens}, nil
}

// warm runs the functional warmup of rc, which is defaulted and validated,
// returning the hierarchy and the generators, also as readers.
func warm(ctx context.Context, rc RunConfig) (*cache.Hierarchy, []*trace.Generator, []trace.Reader, error) {
	if cores := rc.System.Processor.Cores; len(rc.Mix.Benchmarks) != cores {
		return nil, nil, nil, &apiError{
			msg: fmt.Sprintf("camps: mix %q has %d benchmarks, system has %d cores",
				rc.Mix.ID, len(rc.Mix.Benchmarks), cores),
			refs: []error{ErrMixCoreMismatch},
		}
	}
	gens, err := rc.Mix.Generators(rc.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	hier := cache.NewHierarchy(rc.System)
	readers := make([]trace.Reader, len(gens))
	for core, g := range gens {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, fmt.Errorf("camps: run cancelled during warmup: %w", err)
		}
		for i := uint64(0); i < rc.WarmupRefs; i++ {
			addr, write := g.NextAccess()
			hier.Access(core, addr, write)
		}
		readers[core] = g
	}
	return hier, gens, readers, nil
}

// Clone returns an independent copy of w, for one more run to take over.
// Clones of one state may be taken concurrently, but not while a run is
// taking the state itself over.
func (w *WarmState) Clone() *WarmState {
	cp := &WarmState{key: w.key, hier: w.hier.Clone(), gens: make([]*trace.Generator, len(w.gens))}
	for i, g := range w.gens {
		cp.gens[i] = g.Clone()
	}
	return cp
}

// warmState returns the hierarchy and per-core readers rc's measured region
// starts from: rc.Warm taken over, or a functional warmup run now over
// rc.Readers or rc.Mix's generators. rc is defaulted and validated.
func (rc *RunConfig) warmState(ctx context.Context) (*cache.Hierarchy, []trace.Reader, error) {
	cores := rc.System.Processor.Cores
	w := rc.Warm
	switch {
	case w != nil && rc.Readers != nil:
		return nil, nil, &apiError{
			msg:  "camps: RunConfig.Warm cannot be combined with Readers",
			refs: []error{ErrInvalidConfig},
		}
	case w != nil && w.key != rc.WarmKey():
		return nil, nil, &apiError{
			msg: fmt.Sprintf("camps: warm state of mix %q on %d cores (seed %d) does not match the run's mix %q on %d cores (seed %d), warmup or caches",
				w.key.mix, w.key.cores, w.key.seed, rc.Mix.ID, cores, rc.Seed),
			refs: []error{ErrInvalidConfig},
		}
	case w != nil && w.hier == nil:
		return nil, nil, &apiError{
			msg:  "camps: warm state already taken over by another run",
			refs: []error{ErrInvalidConfig},
		}
	case rc.Readers != nil:
		if len(rc.Readers) != cores {
			return nil, nil, &apiError{
				msg:  fmt.Sprintf("camps: %d readers for %d cores", len(rc.Readers), cores),
				refs: []error{ErrMixCoreMismatch},
			}
		}
		hier := cache.NewHierarchy(rc.System)
		if err := warmup(ctx, hier, rc.Readers, rc.WarmupRefs); err != nil {
			return nil, nil, err
		}
		return hier, rc.Readers, nil
	case w == nil:
		hier, _, readers, err := warm(ctx, *rc)
		return hier, readers, err
	}
	readers := make([]trace.Reader, len(w.gens))
	for i, g := range w.gens {
		readers[i] = g
	}
	hier := w.hier
	w.hier, w.gens = nil, nil
	return hier, readers, nil
}

// warmup is the functional cache warmup over caller-supplied readers: it
// consumes refs records per core through hier with no timing, discarding
// memory traffic. warm does the same over a mix's generators.
func warmup(ctx context.Context, hier *cache.Hierarchy, readers []trace.Reader, refs uint64) error {
	for core, r := range readers {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("camps: run cancelled during warmup: %w", err)
		}
		for i := uint64(0); i < refs; i++ {
			rec, err := r.Next()
			if errors.Is(err, io.EOF) {
				break // finite reader exhausted: measured region sees EOF
			}
			if err != nil {
				// A malformed or truncated trace must fail the run, not
				// silently shrink the warmup.
				return fmt.Errorf("camps: core %d warmup trace: %w", core, err)
			}
			hier.Access(core, rec.Addr, rec.Write)
		}
	}
	return nil
}
