package exp

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"camps"
)

func TestPanicInCellIsRecoveredAndRetried(t *testing.T) {
	cells := fakeCells(1)
	var calls atomic.Uint64
	res, st, err := Run(context.Background(), cells, Options{
		Retries: 2,
		Backoff: time.Millisecond,
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			if calls.Add(1) == 1 {
				panic("index out of range in buggy prefetcher")
			}
			return fakeResults(c), nil
		},
	})
	if err != nil {
		t.Fatalf("recovered panic failed the campaign: %v", err)
	}
	if len(res) != 1 || res[0].Attempt != 2 {
		t.Fatalf("res = %+v, want one cell on attempt 2", res)
	}
	if st.Retried != 1 {
		t.Fatalf("stats = %+v, want one retry", st)
	}
}

func TestPanicExhaustingRetriesIsTyped(t *testing.T) {
	cells := fakeCells(1)
	_, st, err := Run(context.Background(), cells, Options{
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			panic("always broken")
		},
	})
	if err == nil {
		t.Fatal("panicking cell succeeded")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Cell != cells[0].Key() || !strings.Contains(pe.Error(), "always broken") {
		t.Fatalf("panic error lost context: %v", pe)
	}
	if len(pe.Stack) == 0 || !bytes.Contains(pe.Stack, []byte("goroutine")) {
		t.Fatal("panic error carries no stack")
	}
	if st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWatchdogKillsHungCell(t *testing.T) {
	cells := fakeCells(1)
	release := make(chan struct{})
	defer close(release) // unblock the abandoned goroutine at test end
	_, st, err := Run(context.Background(), cells, Options{
		CellTimeout: 5 * time.Millisecond,
		HangGrace:   20 * time.Millisecond,
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			<-release // a deadlocked simulation: never polls ctx
			return fakeResults(c), nil
		},
	})
	if err == nil {
		t.Fatal("hung cell succeeded")
	}
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HangError", err)
	}
	if he.Cell != cells[0].Key() || he.Grace != 20*time.Millisecond {
		t.Fatalf("hang error lost context: cell=%q grace=%v", he.Cell, he.Grace)
	}
	// The dump must cover all goroutines so the hang site is visible.
	if !bytes.Contains(he.Stack, []byte("TestWatchdogKillsHungCell")) {
		t.Fatal("goroutine dump does not include the hung cell's stack")
	}
	if st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHangIsRetriedLikeAnyTransientFailure(t *testing.T) {
	cells := fakeCells(1)
	var calls atomic.Uint64
	res, _, err := Run(context.Background(), cells, Options{
		CellTimeout: 5 * time.Millisecond,
		HangGrace:   10 * time.Millisecond,
		Retries:     1,
		Backoff:     time.Millisecond,
		RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			if calls.Add(1) == 1 {
				select {} // first attempt deadlocks forever
			}
			return fakeResults(c), nil
		},
	})
	if err != nil {
		t.Fatalf("retry after hang failed: %v", err)
	}
	if len(res) != 1 || res[0].Attempt != 2 {
		t.Fatalf("res = %+v, want success on attempt 2", res)
	}
}

func TestBadFaultSpecIsPermanent(t *testing.T) {
	cells := fakeCells(1)
	var calls atomic.Uint64
	opts := Options{
		Retries: 5,
		Backoff: time.Millisecond,
		Faults:  camps.FaultSpec{LinkCRCRate: 2}, // invalid: rate > 1
	}
	opts.RunCell = func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
		calls.Add(1)
		return ExecuteCell(ctx, c, o)
	}
	_, st, err := Run(context.Background(), cells, opts)
	if !errors.Is(err, camps.ErrBadFaultSpec) {
		t.Fatalf("err = %v, want ErrBadFaultSpec", err)
	}
	if calls.Load() != 1 || st.Retried != 0 {
		t.Fatalf("deterministic spec failure retried: calls=%d stats=%+v", calls.Load(), st)
	}
}

// The satellite scenario: a campaign killed mid-checkpoint-write leaves a
// torn final record; resuming must repair the store and finish with every
// cell present exactly once — none lost, none duplicated, the torn one
// re-executed.
func TestCrashMidCheckpointWriteThenResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	cells := fakeCells(8)

	run := func(n int) Options {
		return Options{
			Parallelism: 1,
			Checkpoint:  path,
			Resume:      true,
			RunCell: func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
				return fakeResults(c), nil
			},
		}
	}
	if _, st, err := Run(context.Background(), cells[:5], run(5)); err != nil || st.Completed != 5 {
		t.Fatalf("first leg: %v %+v", err, st)
	}

	// Simulate SIGKILL mid-Append: chop the last record in half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	last := lines[len(lines)-1]
	torn := data[:len(data)-len(last)/2-1] // keep half of the final record, no newline
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	var reran []string
	opts := run(8)
	inner := opts.RunCell
	opts.RunCell = func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
		reran = append(reran, c.Key())
		return inner(ctx, c, o)
	}
	res, st, err := Run(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 4 intact checkpoints resume; the torn 5th plus the 3 never-run cells
	// re-execute.
	if st.Resumed != 4 || st.Completed != 4 {
		t.Fatalf("stats after repair = %+v, want 4 resumed + 4 completed", st)
	}
	if len(reran) != 4 {
		t.Fatalf("re-executed %v, want the torn cell and the 3 pending ones", reran)
	}
	seen := map[string]int{}
	for _, r := range res {
		key := Cell{Mix: cells[0].Mix, Scheme: r.Scheme, Seed: r.Seed}.Key()
		seen[key]++
	}
	if len(res) != 8 || len(seen) != 8 {
		t.Fatalf("final campaign has %d results over %d keys, want 8 distinct", len(res), len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("cell %s appears %d times", k, n)
		}
	}

	// The store itself must now hold all 8, cleanly parseable.
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.done) != 8 {
		t.Fatalf("store has %d records, want 8", len(s.done))
	}
}

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := AtomicWriteFile(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("v2-longer"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2-longer" {
		t.Fatalf("content = %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
	if err := AtomicWriteFile(filepath.Join(dir, "missing", "x"), []byte("x"), 0o644); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
}
