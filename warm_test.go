package camps_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"camps"
	"camps/internal/exp"
	"camps/internal/workload"
)

// TestCampaignWarmSharingMatchesFreshRuns is the differential test of the
// campaign's shared warmup: exp.Run builds one warm state per warm key and
// hands its cells clones, so every cell's export must equal a fresh
// camps.RunContext of the same configuration byte for byte. The grid
// covers every registered scheme with faults off and on; the sweeps cover
// a cube-only knob, whose cells share one state, and an L3 knob, whose
// cells must not.
func TestCampaignWarmSharingMatchesFreshRuns(t *testing.T) {
	var mixes []workload.Mix
	for _, id := range []string{"HM1", "MX1", "LM2"} {
		m, err := camps.MixByID(id)
		if err != nil {
			t.Fatal(err)
		}
		mixes = append(mixes, m)
	}
	faulted, err := camps.ParseFaultSpec("linkcrc=2e-3,stall=1e-3,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	grid := exp.Grid(mixes, camps.AllSchemes(), []uint64{1})
	tsv, _ := exp.LookupKnob("tsv")
	cases := []struct {
		name   string
		cells  []exp.Cell
		faults camps.FaultSpec
	}{
		{"grid/clean", grid, camps.FaultSpec{}},
		{"grid/faulted", grid, faulted},
		{"sweep/tsv", exp.Sweep(mixes[1], camps.CAMPSMOD, 1, "tsv", []int64{0, 8, 16}, tsv.Apply), camps.FaultSpec{}},
		{"sweep/l3", exp.Sweep(mixes[1], camps.CAMPSMOD, 1, "l3size", []int64{512 << 10, 1 << 20, 16 << 20},
			func(sys *camps.SystemConfig, v int64) { sys.L3.SizeBytes = v }), camps.FaultSpec{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := exp.Options{
				WarmupRefs:   2_000,
				MeasureInstr: 3_000,
				Faults:       tc.faults,
				Parallelism:  2,
			}
			out, _, err := exp.Run(context.Background(), tc.cells, opts)
			if err != nil {
				t.Fatal(err)
			}
			// The reference runs go through a RunCell that calls
			// camps.RunContext directly, so each warms up by itself. exp
			// runs them, as it runs every cell, under a cancellable
			// context: that arms the halt watcher, which shifts
			// EventsFired, so both sides need it.
			fresh := opts
			fresh.RunCell = func(ctx context.Context, c exp.Cell, o *exp.Options) (camps.Results, error) {
				sys := camps.DefaultSystem()
				if c.Apply != nil {
					c.Apply(&sys)
				}
				return camps.RunContext(ctx, camps.RunConfig{
					System: sys, Scheme: c.Scheme, Mix: c.Mix, Seed: c.Seed,
					WarmupRefs: o.WarmupRefs, MeasureInstr: o.MeasureInstr, Faults: o.Faults,
				})
			}
			ref, _, err := exp.Run(context.Background(), tc.cells, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(tc.cells) || len(ref) != len(tc.cells) {
				t.Fatalf("%d and %d results for %d cells", len(out), len(ref), len(tc.cells))
			}
			for i, c := range tc.cells {
				want, got := ref[i].Results, out[i].Results
				wantJSON, _ := json.Marshal(want)
				gotJSON, _ := json.Marshal(got)
				if !bytes.Equal(wantJSON, gotJSON) {
					t.Errorf("%s: shared-warmup export diverges from a fresh run:\n%s", c.Key(), firstDiff(wantJSON, gotJSON))
				}
				if got.EventsFired != want.EventsFired {
					t.Errorf("%s: EventsFired %d, fresh run %d", c.Key(), got.EventsFired, want.EventsFired)
				}
			}
		})
	}
}

// TestWarmStateRunsMatchFreshRun checks the public warm-state API: clones
// of one Warm state give fresh-run exports, a state serves one run, and
// misuse ends in ErrInvalidConfig.
func TestWarmStateRunsMatchFreshRun(t *testing.T) {
	rc := quick("MX1", camps.CAMPSMOD)
	rc.MeasureInstr = 10_000
	want, err := camps.RunContext(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	ws, err := camps.Warm(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	for _, state := range []*camps.WarmState{ws.Clone(), ws.Clone(), ws} {
		warmed := rc
		warmed.Warm = state
		got, err := camps.RunContext(context.Background(), warmed)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("run from a warm state diverges from a fresh run:\n%s", firstDiff(wantJSON, gotJSON))
		}
	}

	reused := rc
	reused.Warm = ws
	if _, err := camps.RunContext(context.Background(), reused); !errors.Is(err, camps.ErrInvalidConfig) {
		t.Errorf("second run of a taken-over state: err = %v, want ErrInvalidConfig", err)
	}

	fresh, err := camps.Warm(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	other := quick("HM1", camps.CAMPSMOD)
	other.Warm = fresh.Clone()
	if _, err := camps.RunContext(context.Background(), other); !errors.Is(err, camps.ErrInvalidConfig) {
		t.Errorf("mix mismatch: err = %v, want ErrInvalidConfig", err)
	}
	fewer := rc
	fewer.System = camps.DefaultSystem()
	fewer.System.Processor.Cores = 4
	fewer.Warm = fresh.Clone()
	if _, err := camps.RunContext(context.Background(), fewer); !errors.Is(err, camps.ErrInvalidConfig) {
		t.Errorf("core mismatch: err = %v, want ErrInvalidConfig", err)
	}
	withReaders := rc
	withReaders.Warm = fresh.Clone()
	gens, err := rc.Mix.Generators(rc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gens {
		withReaders.Readers = append(withReaders.Readers, g)
	}
	if _, err := camps.RunContext(context.Background(), withReaders); !errors.Is(err, camps.ErrInvalidConfig) {
		t.Errorf("Warm with Readers: err = %v, want ErrInvalidConfig", err)
	}
	withReaders.Warm = nil
	if _, err := camps.Warm(context.Background(), withReaders); !errors.Is(err, camps.ErrInvalidConfig) {
		t.Errorf("Warm from Readers: err = %v, want ErrInvalidConfig", err)
	}
}
