package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camps"
	"camps/internal/obs"
	"camps/internal/workload"
)

// warmCells is one mix under n schemes: n cells that share a warm key.
func warmCells(t *testing.T, mixID string, n int) []Cell {
	t.Helper()
	mix, err := workload.MixByID(mixID)
	if err != nil {
		t.Fatal(err)
	}
	return Grid([]workload.Mix{mix}, camps.AllSchemes()[:n], nil)
}

// smallOpts scales cells for test speed.
func smallOpts() Options {
	return Options{WarmupRefs: 2_000, MeasureInstr: 3_000, Parallelism: 1, Backoff: time.Millisecond}
}

// unclaimed reads how many cells of c's key have yet to claim a copy, and
// whether the key holds a built state (-1, false once the key is gone).
func unclaimed(o *Options, c Cell) (int, bool) {
	m := o.warm
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.keys[o.runConfig(c).WarmKey()]
	if e == nil {
		return -1, false
	}
	return e.unclaimed, e.state != nil
}

// requireFresh fails t unless every result equals a run of its cell that
// warms up by itself.
func requireFresh(t *testing.T, cells []Cell, out []CellResult, o Options) {
	t.Helper()
	if len(out) != len(cells) {
		t.Fatalf("%d results for %d cells", len(out), len(cells))
	}
	for i, c := range cells {
		want, err := ExecuteCell(context.Background(), c, &o)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(out[i].Results)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("%s: result differs from a fresh run", c.Key())
		}
	}
}

// pollCtx calls onPoll with the 1-based count of every Err poll and
// returns its error (nil defers to the parent). done, when set, replaces
// the parent's Done channel, and touched is closed by the first Done call.
type pollCtx struct {
	context.Context
	polls   atomic.Int64
	onPoll  func(n int64) error
	done    chan struct{}
	touched func()
}

func (c *pollCtx) Err() error {
	if err := c.onPoll(c.polls.Add(1)); err != nil {
		return err
	}
	return c.Context.Err()
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.touched != nil {
		c.touched()
	}
	if c.done != nil {
		return c.done
	}
	return c.Context.Done()
}

func TestRunWarmsEachKeyOnce(t *testing.T) {
	cells := append(warmCells(t, "HM1", 3), warmCells(t, "LM2", 2)...)
	type seen struct {
		unclaimed int
		built     bool
	}
	var got []seen
	var memo *warmMemo
	opts := smallOpts()
	opts.RunCell = func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
		memo = o.warm
		n, built := unclaimed(o, c)
		got = append(got, seen{n, built})
		return ExecuteCell(ctx, c, o)
	}
	out, _, err := Run(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	// One build per key, by its first cell; every later cell finds the
	// state built, and the count falls by one per cell.
	want := []seen{{3, false}, {2, true}, {1, true}, {2, false}, {1, true}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d saw %+v, want %+v (all: %+v)", i, got[i], want[i], got)
		}
	}
	if len(memo.keys) != 0 || len(memo.cells) != 0 {
		t.Errorf("memo still holds %d keys, %d cells after Run", len(memo.keys), len(memo.cells))
	}
	requireFresh(t, cells, out, smallOpts())
}

// A build that fails — here its attempt is cancelled mid-warmup, as a
// CellTimeout would — is not kept, and its error goes to the building
// cell only: the waiting sibling builds the state again and succeeds on
// its first attempt.
func TestWarmBuildFailureNotShared(t *testing.T) {
	cells := warmCells(t, "MX1", 2)
	var (
		mu       sync.Mutex
		attempts = map[string]int{}
		failed   atomic.Bool
		waiting  = make(chan struct{})
		wait     sync.Once
	)
	opts := smallOpts()
	opts.Parallelism = 2
	opts.Retries = 1
	opts.RunCell = func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
		mu.Lock()
		attempts[c.Key()]++
		first := attempts[c.Key()] == 1
		mu.Unlock()
		if first {
			// Polls 1-2 are the memo's and Warm's start checks; poll 3 is
			// inside the warmup. The first cell to get there builds: it
			// fails once its sibling is waiting on the build.
			ctx = &pollCtx{
				Context: ctx,
				onPoll: func(n int64) error {
					if n == 3 && failed.CompareAndSwap(false, true) {
						<-waiting
						return context.DeadlineExceeded
					}
					return nil
				},
				touched: func() { wait.Do(func() { close(waiting) }) },
			}
		}
		return ExecuteCell(ctx, c, o)
	}
	out, st, err := Run(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Retried != 1 {
		t.Errorf("Retried = %d, want 1 (the builder only)", st.Retried)
	}
	if out[0].Attempt+out[1].Attempt != 3 {
		t.Errorf("attempts %d and %d, want one cell on its first and the builder on its second",
			out[0].Attempt, out[1].Attempt)
	}
	requireFresh(t, cells, out, smallOpts())
}

// Waiters watch their own context and the builder's: a waiter whose
// context ends returns at once, and a builder whose context ends while it
// hangs (as one abandoned after HangGrace does) loses the build to the
// next waiter.
func TestWarmWaitersNotWedgedByHungBuilder(t *testing.T) {
	cells := warmCells(t, "LM2", 3)
	o := smallOpts()
	m := newWarmMemo(cells, []string{cells[0].Key(), cells[1].Key(), cells[2].Key()}, []int{0, 1, 2}, &o)
	rc := o.runConfig(cells[0])

	hung, unhang, cancelled := make(chan struct{}), make(chan struct{}), make(chan struct{})
	builder := &pollCtx{
		Context: context.Background(),
		onPoll: func(n int64) error {
			if n == 2 { // Warm's start check: the build is in flight
				close(hung)
				<-unhang
			}
			select {
			case <-cancelled:
				return context.DeadlineExceeded
			default:
				return nil
			}
		},
		done: cancelled,
	}
	built := make(chan error, 1)
	go func() {
		_, err := m.acquire(builder, cells[0], rc)
		built <- err
	}()
	<-hung

	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 1)
	go func() {
		_, err := m.acquire(ctx, cells[1], o.runConfig(cells[1]))
		gaveUp <- err
	}()
	cancel()
	if err := <-gaveUp; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}

	close(cancelled)
	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	defer wcancel()
	ws, err := m.acquire(wctx, cells[2], o.runConfig(cells[2]))
	if err != nil || ws == nil {
		t.Fatalf("waiter behind a hung builder: state %v, err %v", ws, err)
	}
	close(unhang)
	if err := <-built; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung builder: err = %v, want its own context's error", err)
	}
	for _, c := range cells {
		m.release(c.Key())
	}
	if len(m.keys) != 0 || len(m.cells) != 0 {
		t.Errorf("memo still holds %d keys, %d cells", len(m.keys), len(m.cells))
	}
}

// A retried attempt runs from a copy of its own, and the key's count
// falls once per cell, not once per attempt.
func TestWarmRetryGetsOwnCopy(t *testing.T) {
	cells := warmCells(t, "HM2", 3)
	var seen []int
	var failedOnce bool
	opts := smallOpts()
	opts.Retries = 1
	opts.RunCell = func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
		n, _ := unclaimed(o, c)
		seen = append(seen, n)
		res, err := ExecuteCell(ctx, c, o)
		if err == nil && !failedOnce {
			// The first attempt claimed (and consumed) a copy; fail it.
			failedOnce = true
			return camps.Results{}, errors.New("transient")
		}
		return res, err
	}
	out, st, err := Run(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Retried != 1 || out[0].Attempt != 2 {
		t.Fatalf("Retried = %d, first cell's attempt %d; want 1 and 2", st.Retried, out[0].Attempt)
	}
	want := []int{3, 2, 2, 1}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("attempts saw counts %v, want %v", seen, want)
		}
	}
	requireFresh(t, cells, out, smallOpts())
}

// States no cell adopts are dropped: a cell whose RunCell never executes
// it (a result-cache hit) retires from its key's count, and a cancelled
// campaign leaves nothing behind.
func TestWarmStatesDroppedWhenRunReturns(t *testing.T) {
	t.Run("cache-hit", func(t *testing.T) {
		cells := warmCells(t, "HM1", 3)
		var memo *warmMemo
		opts := smallOpts()
		opts.RunCell = func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			memo = o.warm
			if c.Key() == cells[2].Key() {
				if n, built := unclaimed(o, c); n != 1 || !built {
					t.Errorf("last cell sees %d unclaimed (built %v), want 1 (true)", n, built)
				}
				o.warm.mu.Lock()
				if o.warm.spare == nil {
					t.Error("no finished cell handed its state back as a spare")
				}
				o.warm.mu.Unlock()
				return camps.Results{Mix: c.Mix.ID}, nil
			}
			return ExecuteCell(ctx, c, o)
		}
		if _, _, err := Run(context.Background(), cells, opts); err != nil {
			t.Fatal(err)
		}
		if len(memo.keys) != 0 || len(memo.cells) != 0 || memo.spare != nil {
			t.Errorf("memo still holds %d keys, %d cells, spare %v", len(memo.keys), len(memo.cells), memo.spare != nil)
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		cells := append(warmCells(t, "HM1", 3), warmCells(t, "LM1", 3)...)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var memo *warmMemo
		opts := smallOpts()
		opts.RunCell = func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			memo = o.warm
			return ExecuteCell(ctx, c, o)
		}
		opts.Progress = func(CellResult) { cancel() }
		if _, _, err := Run(ctx, cells, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(memo.keys) != 0 || len(memo.cells) != 0 || memo.spare != nil {
			t.Errorf("memo still holds %d keys, %d cells, spare %v", len(memo.keys), len(memo.cells), memo.spare != nil)
		}
	})
}

// A cell run with a CellObs suite keeps its hierarchy: the counters it
// registered read that hierarchy after Run returns, so no later cell's
// copy may be made in its memory. Every cell's registry must still report
// the L3 counters of its own Results.
func TestObservedCellsKeepTheirHierarchy(t *testing.T) {
	cells := append(warmCells(t, "HM1", 3), warmCells(t, "LM1", 3)...)
	var mu sync.Mutex
	suites := make(map[string]*obs.Suite)
	opts := smallOpts()
	opts.Parallelism = 2
	opts.CellObs = func(c Cell) *obs.Suite {
		s := obs.NewSuite(16)
		mu.Lock()
		suites[c.Key()] = s
		mu.Unlock()
		return s
	}
	out, _, err := Run(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		caches := out[i].Results.Caches
		snap := suites[c.Key()].Registry.Snapshot("after", 0)
		if hits, misses := snap.Counters["cache.l3_hits"], snap.Counters["cache.l3_misses"]; hits != caches.L3Hits || misses != caches.L3Misses {
			t.Errorf("%s: registry reads %d L3 hits, %d misses after Run; the run reported %d, %d",
				c.Key(), hits, misses, caches.L3Hits, caches.L3Misses)
		}
	}
}

// A cell whose Apply panics cannot be keyed; it runs unshared and fails as
// a PanicError inside its attempt instead of taking Run down.
func TestWarmKeyingSurvivesPanickingApply(t *testing.T) {
	cells := warmCells(t, "HM1", 1)
	cells = append(cells, Cell{Mix: cells[0].Mix, Scheme: camps.CAMPS, Seed: 1, Knob: "bad", Value: 1,
		Apply: func(*camps.SystemConfig) { panic("bad knob") }})
	_, _, err := Run(context.Background(), cells, smallOpts())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a PanicError", err)
	}
}

// recordStarts makes opts run its cells through ExecuteCell, appending each
// to the returned order as it starts. The first hold starts block until
// hold cells have started, so each was handed out while the others ran.
func recordStarts(opts *Options, hold int) *[]Cell {
	var (
		mu    sync.Mutex
		order []Cell
		held  = make(chan struct{})
	)
	opts.RunCell = func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
		mu.Lock()
		order = append(order, c)
		n := len(order)
		if n == hold {
			close(held)
		}
		mu.Unlock()
		if n <= hold {
			<-held
		}
		return ExecuteCell(ctx, c, o)
	}
	return &order
}

// A worker is not handed a cell that would wait on another worker's
// warmup while a cell of another key is ready: the second worker starts
// the second mix instead, and no cell of the campaign waits at all.
func TestRunPicksCellsOffWarmingKeys(t *testing.T) {
	cells := append(warmCells(t, "HM1", 5), warmCells(t, "LM2", 5)...)
	opts := smallOpts()
	opts.Parallelism = 2
	order := recordStarts(&opts, 2)
	out, st, err := Run(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, second := (*order)[0], (*order)[1]
	if opts.runConfig(first).WarmKey() == opts.runConfig(second).WarmKey() {
		t.Errorf("first two cells handed out, %s and %s, share a warm key", first.Key(), second.Key())
	}
	if st.WarmWaits != 0 {
		t.Errorf("WarmWaits = %d, want 0", st.WarmWaits)
	}
	if len(out) != len(cells) {
		t.Fatalf("%d results for %d cells", len(out), len(cells))
	}
	for i := range cells {
		if out[i].Mix != cells[i].Mix.ID || out[i].Scheme != cells[i].Scheme {
			t.Fatalf("result %d is %s/%v, want enumeration order", i, out[i].Mix, out[i].Scheme)
		}
	}
}

// One worker runs the cells in enumeration order, even when the keys
// interleave.
func TestRunSingleWorkerKeepsEnumerationOrder(t *testing.T) {
	a, b := warmCells(t, "HM1", 3), warmCells(t, "LM2", 3)
	var cells []Cell
	for i := range a {
		cells = append(cells, a[i], b[i])
	}
	opts := smallOpts()
	order := recordStarts(&opts, 1)
	if _, _, err := Run(context.Background(), cells, opts); err != nil {
		t.Fatal(err)
	}
	for i, c := range *order {
		if c.Key() != cells[i].Key() {
			t.Fatalf("start %d is %s, want %s", i, c.Key(), cells[i].Key())
		}
	}
}

// When every cell left waits on a build, the next worker takes one
// anyway and waits; the wait shows in Stats.
func TestRunCountsWarmWaits(t *testing.T) {
	cells := warmCells(t, "MX1", 2)
	waiting := make(chan struct{})
	var wait sync.Once
	opts := smallOpts()
	opts.Parallelism = 2
	opts.RunCell = func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
		// Poll 3 is inside the warmup: the builder holds there until its
		// sibling waits on the build.
		ctx = &pollCtx{
			Context: ctx,
			onPoll: func(n int64) error {
				if n == 3 {
					<-waiting
				}
				return nil
			},
			touched: func() { wait.Do(func() { close(waiting) }) },
		}
		return ExecuteCell(ctx, c, o)
	}
	out, st, err := Run(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmWaits != 1 {
		t.Fatalf("WarmWaits = %d, want 1", st.WarmWaits)
	}
	requireFresh(t, cells, out, smallOpts())
}
