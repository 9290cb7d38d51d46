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
// covers every scheme with faults off and on; the sweeps cover
// a cube-only knob and the L3 MSHR count, whose cells share one state,
// and the L3 size, whose cells must not.
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
	tsvSpec := exp.Spec{Mixes: []string{"MX1"}, Schemes: []string{"CAMPS-MOD"}, Knob: "tsv", Values: []int64{0, 8, 16}}
	tsv, _, err := tsvSpec.Expand(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mshrSpec := exp.Spec{Mixes: []string{"MX1"}, Schemes: []string{"CAMPS-MOD"}, Knob: "mshrs", Values: []int64{4, 64}}
	mshrs, _, err := mshrSpec.Expand(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// l3size is not a knob of the table, so its cells are written out.
	var l3 []exp.Cell
	for _, v := range []int64{512 << 10, 1 << 20, 16 << 20} {
		l3 = append(l3, exp.Cell{Mix: mixes[1], Scheme: camps.CAMPSMOD, Seed: 1, Knob: "l3size", Value: v,
			Apply: func(sys *camps.SystemConfig) { sys.L3.SizeBytes = v }})
	}
	cases := []struct {
		name   string
		cells  []exp.Cell
		faults camps.FaultSpec
	}{
		{"grid/clean", grid, camps.FaultSpec{}},
		{"grid/faulted", grid, faulted},
		{"sweep/tsv", tsv, camps.FaultSpec{}},
		{"sweep/mshrs", mshrs, camps.FaultSpec{}},
		{"sweep/l3", l3, camps.FaultSpec{}},
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

// TestWarmKeyIgnoresL3MSHRs: a run builds its L3 MSHR file after the
// functional warmup, so runs that differ only in the MSHR count share a
// warm key, and an mshrs sweep warms up once. The L3 geometry shapes the
// warmed hierarchy and splits the key.
func TestWarmKeyIgnoresL3MSHRs(t *testing.T) {
	key := func(apply func(*camps.SystemConfig)) camps.WarmKey {
		rc := quick("MX1", camps.CAMPSMOD)
		rc.System = camps.DefaultSystem()
		apply(&rc.System)
		return rc.WarmKey()
	}
	few := key(func(sys *camps.SystemConfig) { sys.L3MSHRs = 4 })
	many := key(func(sys *camps.SystemConfig) { sys.L3MSHRs = 64 })
	if few != many {
		t.Error("WarmKey differs between 4 and 64 L3 MSHRs")
	}
	if smaller := key(func(sys *camps.SystemConfig) { sys.L3.SizeBytes = 1 << 20 }); smaller == many {
		t.Error("WarmKey is equal for a 1 MB and a 16 MB L3")
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
