package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camps"
	"camps/internal/workload"
)

// fakeCells enumerates n synthetic grid cells (distinct seeds).
func fakeCells(n int) []Cell {
	mix, _ := workload.MixByID("HM1")
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Mix: mix, Scheme: camps.CAMPS, Seed: uint64(i + 1)}
	}
	return cells
}

// fakeResults returns distinguishable results for a cell.
func fakeResults(c Cell) camps.Results {
	return camps.Results{Mix: c.Mix.ID, Scheme: c.Scheme, GeoMeanIPC: float64(c.Seed)}
}

func TestGridEnumeration(t *testing.T) {
	mixes := workload.Mixes()[:2]
	schemes := []camps.Scheme{camps.BASE, camps.CAMPSMOD}
	cells := Grid(mixes, schemes, []uint64{0, 7})
	if len(cells) != 8 {
		t.Fatalf("enumerated %d cells, want 8", len(cells))
	}
	// Seed 0 normalizes to the camps default 1 for stable checkpoint keys.
	if cells[0].Key() != "HM1/BASE/seed=1" {
		t.Fatalf("first key = %q", cells[0].Key())
	}
	keys := map[string]bool{}
	for _, c := range cells {
		if keys[c.Key()] {
			t.Fatalf("duplicate key %s", c.Key())
		}
		keys[c.Key()] = true
	}
}

func TestSweepEnumerationAppliesKnob(t *testing.T) {
	spec := Spec{Mixes: []string{"HM2"}, Schemes: []string{"CAMPS-MOD"}, Seeds: []uint64{0},
		Knob: "ct", Values: []int64{8, 64}}
	cells, _, err := spec.Expand(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("enumerated %d cells", len(cells))
	}
	if cells[1].Key() != "HM2/CAMPS-MOD/seed=1/ct=64" {
		t.Fatalf("key = %q", cells[1].Key())
	}
	sys := camps.DefaultSystem()
	cells[0].Apply(&sys)
	if sys.CAMPS.CTEntries != 8 {
		t.Fatalf("apply set CTEntries = %d, want 8", sys.CAMPS.CTEntries)
	}
}

func TestRunCompletesAllCellsInOrder(t *testing.T) {
	cells := fakeCells(9)
	var calls atomic.Uint64
	var progress []CellResult
	res, st, err := Run(context.Background(), cells, Options{
		Parallelism: 3,
		Progress:    func(cr CellResult) { progress = append(progress, cr) },
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			calls.Add(1)
			return fakeResults(c), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 9 || calls.Load() != 9 || len(progress) != 9 {
		t.Fatalf("res=%d calls=%d progress=%d, want 9 each", len(res), calls.Load(), len(progress))
	}
	for i, r := range res {
		if r.Seed != uint64(i+1) {
			t.Fatalf("result %d has seed %d: not in enumeration order", i, r.Seed)
		}
		if r.Attempt != 1 || r.Resumed {
			t.Fatalf("result %d: attempt=%d resumed=%v", i, r.Attempt, r.Resumed)
		}
		if r.Results.GeoMeanIPC != float64(r.Seed) {
			t.Fatalf("result %d carries wrong results", i)
		}
	}
	if st.Started != 9 || st.Completed != 9 || st.Retried != 0 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	cells := fakeCells(1)
	var calls atomic.Uint64
	res, st, err := Run(context.Background(), cells, Options{
		Retries: 3,
		Backoff: time.Millisecond,
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			if calls.Add(1) < 3 {
				return camps.Results{}, fmt.Errorf("transient blip")
			}
			return fakeResults(c), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Attempt != 3 {
		t.Fatalf("res=%v", res)
	}
	if st.Retried != 2 || st.Started != 3 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetriesExhausted(t *testing.T) {
	cells := fakeCells(1)
	var calls atomic.Uint64
	_, st, err := Run(context.Background(), cells, Options{
		Retries: 2,
		Backoff: time.Millisecond,
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			calls.Add(1)
			return camps.Results{}, fmt.Errorf("still broken")
		},
	})
	if err == nil {
		t.Fatal("campaign succeeded despite exhausted retries")
	}
	if calls.Load() != 3 {
		t.Fatalf("runCell called %d times, want 3", calls.Load())
	}
	if st.Failed != 1 || st.Retried != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPermanentFailureIsNotRetried(t *testing.T) {
	cells := fakeCells(1)
	var calls atomic.Uint64
	_, st, err := Run(context.Background(), cells, Options{
		Retries: 5,
		Backoff: time.Millisecond,
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			calls.Add(1)
			return camps.Results{}, fmt.Errorf("wrapped: %w", camps.ErrInvalidConfig)
		},
	})
	if err == nil || !errors.Is(err, camps.ErrInvalidConfig) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("permanent failure retried: %d calls", calls.Load())
	}
	if st.Failed != 1 || st.Retried != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCellTimeout(t *testing.T) {
	cells := fakeCells(1)
	_, _, err := Run(context.Background(), cells, Options{
		CellTimeout: 5 * time.Millisecond,
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			<-ctx.Done() // a simulation that honors cancellation
			return camps.Results{}, fmt.Errorf("cell timed out: %w", ctx.Err())
		},
	})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestCampaignCancellation(t *testing.T) {
	cells := fakeCells(16)
	ctx, cancel := context.WithCancel(context.Background())
	var completed atomic.Uint64
	res, st, err := Run(ctx, cells, Options{
		Parallelism: 2,
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			if completed.Add(1) == 4 {
				cancel()
			}
			if err := ctx.Err(); err != nil {
				return camps.Results{}, err
			}
			return fakeResults(c), nil
		},
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) == len(cells) {
		t.Fatal("cancelled campaign still completed every cell")
	}
	if st.Cancelled == 0 {
		t.Fatalf("stats = %+v: no cells recorded as cancelled", st)
	}
	if n := st.Completed + st.Failed + st.Cancelled + st.Resumed; n != uint64(len(cells)) {
		t.Fatalf("stats = %+v account for %d cells, want %d", st, n, len(cells))
	}
}

func TestDuplicateCellsRejected(t *testing.T) {
	cells := fakeCells(2)
	cells[1].Seed = cells[0].Seed
	_, _, err := Run(context.Background(), cells, Options{
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			return fakeResults(c), nil
		},
	})
	if !errors.Is(err, ErrDuplicateCell) {
		t.Fatalf("err = %v, want ErrDuplicateCell", err)
	}
}

func TestCheckpointResumeSkipsDoneCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	cells := fakeCells(10)

	// First run: cancel once 4 cells have been checkpointed.
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	firstDone := 0
	_, st1, err := Run(ctx, cells, Options{
		Parallelism: 1,
		Checkpoint:  path,
		Progress: func(cr CellResult) {
			mu.Lock()
			firstDone++
			if firstDone == 4 {
				cancel()
			}
			mu.Unlock()
		},
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			return fakeResults(c), nil
		},
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("first run err = %v", err)
	}
	if st1.Completed < 4 {
		t.Fatalf("first run completed %d cells, want >= 4", st1.Completed)
	}

	// Second run resumes: only the remaining cells execute.
	var calls atomic.Uint64
	res, st2, err := Run(context.Background(), cells, Options{
		Parallelism: 2,
		Checkpoint:  path,
		Resume:      true,
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			calls.Add(1)
			return fakeResults(c), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("resumed campaign returned %d cells, want 10", len(res))
	}
	if st2.Resumed != st1.Completed {
		t.Fatalf("resumed %d cells, want %d", st2.Resumed, st1.Completed)
	}
	if want := 10 - st1.Completed; calls.Load() != want {
		t.Fatalf("second run executed %d cells, want %d", calls.Load(), want)
	}
	resumed := 0
	for _, r := range res {
		if r.Resumed {
			resumed++
			if r.Results.GeoMeanIPC != float64(r.Seed) {
				t.Fatalf("resumed cell %s lost its results", r.Mix)
			}
		}
	}
	if uint64(resumed) != st2.Resumed {
		t.Fatalf("resumed flag on %d results, stats say %d", resumed, st2.Resumed)
	}

	// Third run: everything resumes, nothing executes.
	_, st3, err := Run(context.Background(), cells, Options{
		Checkpoint: path,
		Resume:     true,
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			t.Error("fully-checkpointed campaign executed a cell")
			return fakeResults(c), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Resumed != 10 || st3.Started != 0 {
		t.Fatalf("stats = %+v", st3)
	}
}

// TestCheckpointBlackoutCell is campsweep's
// "-mix HM1 -knob ct -values 16 -instr 20000
// -faults bankfail=100us,bankfor=5us -out ..." as one Run. 5us bank
// blackouts hold more than 1% of reads past the 2us read-latency
// histogram, where AMATp99ps once read +Inf, which encoding/json
// rejects: the checkpoint append failed and the campaign with it.
func TestCheckpointBlackoutCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sw.jsonl")
	spec := Spec{Mixes: []string{"HM1"}, Schemes: []string{"CAMPS-MOD"}, Knob: "ct", Values: []int64{16},
		Instr: 20_000, Faults: "bankfail=100us,bankfor=5us"}
	cells, opts, err := spec.Expand(Options{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := Run(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p99 := res[0].Results.AMATp99ps; math.IsInf(p99, 0) || p99 <= 2e6 {
		t.Fatalf("AMATp99ps = %g, want finite and past the 2us histogram", p99)
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.done) != 1 {
		t.Fatalf("checkpoint holds %d records, want 1", len(st.done))
	}
}

func TestWithoutResumeCheckpointIsIgnoredOnRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	cells := fakeCells(3)
	runAll := Options{
		Checkpoint: path,
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			return fakeResults(c), nil
		},
	}
	if _, _, err := Run(context.Background(), cells, runAll); err != nil {
		t.Fatal(err)
	}
	// Resume off: cells re-execute even though the store has them.
	var calls atomic.Uint64
	runAll.RunCell = func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
		calls.Add(1)
		return fakeResults(c), nil
	}
	if _, _, err := Run(context.Background(), cells, runAll); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("executed %d cells, want 3", calls.Load())
	}
}

// realGrid is MX1 and HM1 under CAMPS and CAMPS-MOD at seeds 1 and 2:
// eight real cells, four warm keys.
func realGrid(t *testing.T) []Cell {
	t.Helper()
	mx1, _ := workload.MixByID("MX1")
	hm1, _ := workload.MixByID("HM1")
	return Grid([]workload.Mix{mx1, hm1}, []camps.Scheme{camps.CAMPS, camps.CAMPSMOD}, []uint64{1, 2})
}

func TestGridDeterministicAcrossParallelism(t *testing.T) {
	cells := realGrid(t)
	run := func(par int) []byte {
		res, _, err := Run(context.Background(), cells, Options{
			WarmupRefs: 2_000, MeasureInstr: 10_000, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(cells) {
			t.Fatalf("%d results for %d cells", len(res), len(cells))
		}
		for i, cr := range res {
			if cr.Mix != cells[i].Mix.ID || cr.Scheme != cells[i].Scheme || cr.Seed != cells[i].Seed {
				t.Fatalf("result %d is %s/%v/seed=%d, want %s", i, cr.Mix, cr.Scheme, cr.Seed, cells[i].Key())
			}
		}
		out := make([]camps.Results, len(res))
		for i, cr := range res {
			out[i] = cr.Results
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(run(1), run(4)) {
		t.Fatal("grid results depend on parallelism")
	}
}

func TestProgressReceivesCellResults(t *testing.T) {
	hm1, _ := workload.MixByID("HM1")
	var got []CellResult
	_, _, err := Run(context.Background(), Grid([]workload.Mix{hm1},
		[]camps.Scheme{camps.BASE, camps.CAMPSMOD}, nil), Options{
		WarmupRefs:   2_000,
		MeasureInstr: 10_000,
		Progress:     func(cr CellResult) { got = append(got, cr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("progress fired %d times, want 2", len(got))
	}
	for _, cr := range got {
		if cr.Mix != "HM1" || cr.Seed != 1 || cr.Attempt != 1 || cr.Resumed {
			t.Fatalf("cell result = %+v", cr)
		}
		if cr.Duration <= 0 {
			t.Fatalf("cell result has no duration: %+v", cr)
		}
		if cr.Results.GeoMeanIPC <= 0 {
			t.Fatalf("cell result carries no measurements: %+v", cr)
		}
	}
}

func TestRunCancelledGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Run(ctx, realGrid(t), Options{WarmupRefs: 2_000, MeasureInstr: 10_000})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
