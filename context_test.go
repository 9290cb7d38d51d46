package camps_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"camps"
	"camps/internal/sim"
	"camps/internal/trace"
)

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	rc := quick("HM1", camps.CAMPS)
	a, err := camps.RunContext(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := camps.RunContext(context.Background(), quick("HM1", camps.CAMPS))
	if err != nil {
		t.Fatal(err)
	}
	if a.GeoMeanIPC != b.GeoMeanIPC || a.RowConflicts != b.RowConflicts || a.ElapsedSim != b.ElapsedSim {
		t.Fatal("RunContext(Background) diverged from Run")
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := camps.RunContext(ctx, quick("HM1", camps.BASE))
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// pollCtx is a deterministic context: Err flips to Canceled after the
// Nth poll, letting the test pin exactly which epoch observes the
// cancellation without wall-clock races.
type pollCtx struct {
	context.Context
	polls       atomic.Int64
	cancelAfter int64
	done        chan struct{}
}

func newPollCtx(after int64) *pollCtx {
	return &pollCtx{Context: context.Background(), cancelAfter: after, done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > c.cancelAfter {
		return context.Canceled
	}
	return nil
}

func TestRunContextHaltsWithinOneEpoch(t *testing.T) {
	// Baseline: how long the run takes unperturbed.
	full, err := camps.RunContext(context.Background(), quick("HM1", camps.BASE))
	if err != nil {
		t.Fatal(err)
	}

	const epoch = 1 * sim.Microsecond
	if full.ElapsedSim < 10*epoch {
		t.Fatalf("baseline too short (%v) to observe mid-run cancellation", full.ElapsedSim)
	}

	// RunContext polls Err once up front and once per core during warmup
	// (9 polls for the 8-core system); the watcher's first poll during the
	// measured region is number 10, at 1us of simulated time. Cancelling
	// on poll 12 means the run must halt at the third epoch tick — 3us —
	// far before the baseline end.
	ctx := newPollCtx(11)
	rc := quick("HM1", camps.BASE)
	rc.EpochInterval = epoch
	_, err = camps.RunContext(ctx, rc)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled at 3000.000ns") {
		t.Fatalf("run did not halt at the first epoch after cancellation: %v", err)
	}
}

func TestRunContextCancelMidRunWallClock(t *testing.T) {
	// A large instruction budget that would take many seconds to drain;
	// cancellation must cut it short.
	rc := quick("HM2", camps.CAMPSMOD)
	rc.MeasureInstr = 50_000_000
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := camps.RunContext(ctx, rc)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled run still took %v", elapsed)
	}
}

// TestOutOfRangeSchemeIsInvalidConfig checks that a Scheme value outside
// the scheme table ends in ErrInvalidConfig from both RunContext and
// Warm, which share RunConfig validation, instead of a panic.
func TestOutOfRangeSchemeIsInvalidConfig(t *testing.T) {
	for _, s := range []camps.Scheme{-1, camps.Scheme(len(camps.AllSchemes()))} {
		rc := quick("HM1", s)
		for _, c := range []struct {
			name string
			call func() error
		}{
			{"RunContext", func() error { _, err := camps.RunContext(context.Background(), rc); return err }},
			{"Warm", func() error { _, err := camps.Warm(context.Background(), rc); return err }},
		} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s(Scheme %d) panicked: %v", c.name, int(s), r)
					}
				}()
				if err := c.call(); !errors.Is(err, camps.ErrInvalidConfig) {
					t.Errorf("%s(Scheme %d): err = %v, want ErrInvalidConfig", c.name, int(s), err)
				}
			}()
		}
	}
}

func TestTypedErrors(t *testing.T) {
	// Invalid configuration: message preserved, sentinel matched.
	rc := quick("HM1", camps.BASE)
	rc.System = camps.DefaultSystem()
	rc.System.Processor.Cores = -1
	_, err := camps.RunContext(context.Background(), rc)
	if err == nil || !errors.Is(err, camps.ErrInvalidConfig) {
		t.Fatalf("err = %v, want ErrInvalidConfig match", err)
	}
	if !strings.HasPrefix(err.Error(), "camps: ") || !strings.Contains(err.Error(), "cores must be positive") {
		t.Fatalf("message changed: %q", err.Error())
	}

	// Mix/core mismatch.
	rc2 := quick("HM1", camps.BASE)
	rc2.Mix.Benchmarks = rc2.Mix.Benchmarks[:3]
	_, err = camps.RunContext(context.Background(), rc2)
	if err == nil || !errors.Is(err, camps.ErrMixCoreMismatch) {
		t.Fatalf("err = %v, want ErrMixCoreMismatch match", err)
	}
	if !strings.Contains(err.Error(), "has 3 benchmarks, system has 8 cores") {
		t.Fatalf("message changed: %q", err.Error())
	}

	// Unknown mix, via the re-exported sentinel.
	_, err = camps.MixByID("nope")
	if err == nil || !errors.Is(err, camps.ErrUnknownMix) {
		t.Fatalf("err = %v, want ErrUnknownMix match", err)
	}
	if _, err := camps.AnyMixByID("nope"); !errors.Is(err, camps.ErrUnknownMix) {
		t.Fatalf("AnyMixByID err = %v, want ErrUnknownMix match", err)
	}
}

// TestReadersBeyondTagLimit checks that a Readers record at the caches'
// tag limit (32 GiB on Table I: the L1's 256 sets of 64-byte lines and
// 21-bit tags) fails the run with ErrAddressRange, whether the functional
// warmup or the measured region reads it, while the highest line below
// the limit runs normally.
func TestReadersBeyondTagLimit(t *testing.T) {
	const limit = 32 << 30
	for _, tc := range []struct {
		name   string
		at     int    // index of core 3's out-of-range record
		inText string // where the error says it happened
	}{
		{"warmup", 50, "core 3 warmup trace"},
		{"measured", 500, "cpu: core 3 trace"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			readers := make([]trace.Reader, camps.DefaultSystem().Processor.Cores)
			for core := range readers {
				recs := make([]trace.Record, 1000)
				for i := range recs {
					recs[i] = trace.Record{Gap: 3, Addr: uint64(core)<<20 | uint64(i)*64}
				}
				recs[10].Addr = limit - 64 // the highest taggable line
				if core == 3 {
					recs[tc.at].Addr = limit
				}
				readers[core] = trace.NewSliceReader(recs)
			}
			_, err := camps.RunContext(context.Background(), camps.RunConfig{
				Scheme: camps.BASE, Readers: readers, WarmupRefs: 100, MeasureInstr: 4_000,
			})
			if !errors.Is(err, camps.ErrAddressRange) {
				t.Fatalf("err = %v, want ErrAddressRange", err)
			}
			if !strings.Contains(err.Error(), tc.inText) {
				t.Fatalf("err = %q, want it to name %q", err, tc.inText)
			}
		})
	}
}

// TestTagLimitBelowMixSpanIsInvalidConfig checks that a system whose
// caches cannot tag a whole mix's address span (8 cores x 512 MiB) fails
// validation: an L1 of 16 sets tags only the first 2 GiB.
func TestTagLimitBelowMixSpanIsInvalidConfig(t *testing.T) {
	rc := quick("HM1", camps.BASE)
	rc.System = camps.DefaultSystem()
	rc.System.L1.SizeBytes = 2 << 10 // 2 ways of 64-byte lines: 16 sets
	if _, err := camps.RunContext(context.Background(), rc); !errors.Is(err, camps.ErrInvalidConfig) {
		t.Fatalf("RunContext: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := camps.Warm(context.Background(), rc); !errors.Is(err, camps.ErrInvalidConfig) {
		t.Fatalf("Warm: err = %v, want ErrInvalidConfig", err)
	}
}
