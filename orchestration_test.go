package camps_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"camps"
	"camps/internal/exp"
	"camps/internal/report"
	"camps/internal/workload"
)

// TestCampaignInterruptAndResume is the end-to-end resumability contract:
// a campaign of real simulations is cancelled partway (campsweep wires
// SIGINT to exactly this context cancellation), must leave a valid JSONL
// checkpoint behind, and a -resume-style re-run must complete the grid
// while re-executing only the cells the first run never finished.
func TestCampaignInterruptAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	hm1, _ := workload.MixByID("HM1")
	lm1, _ := workload.MixByID("LM1")
	cells := exp.Grid(
		[]workload.Mix{hm1, lm1},
		[]camps.Scheme{camps.BASE, camps.CAMPS, camps.CAMPSMOD},
		[]uint64{1},
	)
	small := exp.Options{
		WarmupRefs:   2_000,
		MeasureInstr: 20_000,
		Parallelism:  2,
		Checkpoint:   path,
	}

	// Phase 1: cancel after two cells have been checkpointed.
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	finished := 0
	opts := small
	opts.Progress = func(cr exp.CellResult) {
		mu.Lock()
		finished++
		if finished == 2 {
			cancel()
		}
		mu.Unlock()
	}
	_, st1, err := exp.Run(ctx, cells, opts)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1 err = %v, want context.Canceled", err)
	}
	if st1.Completed == 0 || st1.Completed >= uint64(len(cells)) {
		t.Fatalf("phase 1 completed %d of %d cells; cancellation had no effect", st1.Completed, len(cells))
	}

	// The interrupted checkpoint must be valid line-by-line JSONL.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if uint64(len(lines)) != st1.Completed {
		t.Fatalf("checkpoint has %d lines, %d cells completed", len(lines), st1.Completed)
	}
	store, err := exp.OpenStore(path)
	if err != nil {
		t.Fatalf("interrupted checkpoint unreadable: %v", err)
	}
	if n := len(store.Done()); n != int(st1.Completed) {
		t.Fatalf("store reloaded %d records, want %d", n, st1.Completed)
	}
	store.Close()

	// Phase 2: resume. Only the unfinished cells may execute.
	opts = small
	opts.Resume = true
	results, st2, err := exp.Run(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cells) {
		t.Fatalf("resumed campaign returned %d cells, want %d", len(results), len(cells))
	}
	if st2.Resumed != st1.Completed {
		t.Fatalf("resumed %d cells, want %d", st2.Resumed, st1.Completed)
	}
	if want := uint64(len(cells)) - st1.Completed; st2.Started != want {
		t.Fatalf("resume executed %d cells, want %d", st2.Started, want)
	}

	// Resumed and fresh cells must be interchangeable: every cell carries
	// real measurements, and a resumed BASE cell's results must equal a
	// fresh run of the same cell (the checkpoint round-trips losslessly
	// enough for the figure pipeline).
	for _, cr := range results {
		if cr.Results.GeoMeanIPC <= 0 {
			t.Fatalf("cell %s/%v has no IPC (resumed=%v)", cr.Mix, cr.Scheme, cr.Resumed)
		}
	}
	var probe exp.CellResult
	for _, cr := range results {
		if cr.Resumed {
			probe = cr
			break
		}
	}
	mix, _ := workload.MixByID(probe.Mix)
	fresh, err := camps.RunContext(context.Background(), camps.RunConfig{
		Scheme: probe.Scheme, Mix: mix, Seed: probe.Seed,
		WarmupRefs: small.WarmupRefs, MeasureInstr: small.MeasureInstr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.GeoMeanIPC != probe.Results.GeoMeanIPC ||
		fresh.RowConflicts != probe.Results.RowConflicts ||
		fresh.VaultStats.BufferHits.Value() != probe.Results.VaultStats.BufferHits.Value() {
		t.Fatalf("resumed cell diverged from fresh run:\nresumed %+v\nfresh IPC %g conflicts %d",
			probe.Results.GeoMeanIPC, fresh.GeoMeanIPC, fresh.RowConflicts)
	}
}

// TestHarnessCheckpointResume drives the same contract through the
// figure pipeline: the results of a half-resumed grid campaign must be
// complete enough for report.Figures.
func TestHarnessCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	hm1, _ := workload.MixByID("HM1")
	cells := exp.Grid([]workload.Mix{hm1},
		[]camps.Scheme{camps.BASE, camps.MMD, camps.CAMPSMOD}, nil)
	base := exp.Options{
		WarmupRefs:   2_000,
		MeasureInstr: 20_000,
		Parallelism:  1,
		Checkpoint:   path,
	}

	ctx, cancel := context.WithCancel(context.Background())
	opts := base
	opts.Progress = func(cr exp.CellResult) { cancel() } // stop after the first cell
	if _, _, err := exp.Run(ctx, cells, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	opts = base
	opts.Resume = true
	results, st, err := exp.Run(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resumed == 0 || len(results) != len(cells) {
		t.Fatalf("resumed %d cells, got %d of %d results", st.Resumed, len(results), len(cells))
	}
	for _, cr := range results {
		if cr.Results.GeoMeanIPC <= 0 {
			t.Fatalf("resumed grid missing cell HM1/%v", cr.Scheme)
		}
	}
	// The figure pipeline must work off a partially-resumed grid.
	if f5 := report.Figures(results)[0]; f5.Rows() != 2 || f5.Value(0, 0) != 1.0 {
		t.Fatalf("figure 5 from resumed grid is malformed")
	}
}
