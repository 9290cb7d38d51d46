package exp

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"camps"
)

// PanicError is a panic recovered from one cell's simulation attempt. The
// worker that ran the cell survives; the panic is converted into an
// ordinary (retryable) cell error carrying the panicking goroutine's
// stack, so one buggy configuration cannot take down a whole campaign.
type PanicError struct {
	Cell  string // cell key
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exp: cell %s panicked: %v\n%s", e.Cell, e.Value, e.Stack)
}

// HangError reports a cell whose simulation did not return within
// HangGrace after its context was cancelled — a deadlock or a hot loop
// that never polls cancellation. The watchdog abandons the attempt (the
// goroutine is leaked; Go offers no way to kill it) and captures an
// all-goroutine stack dump so the hang site is diagnosable post-mortem.
type HangError struct {
	Cell  string        // cell key
	Grace time.Duration // how long past cancellation the cell was given
	Stack []byte        // all-goroutine dump taken when the watchdog fired
}

func (e *HangError) Error() string {
	return fmt.Sprintf("exp: cell %s hung: still running %v after cancellation; goroutine dump:\n%s",
		e.Cell, e.Grace, e.Stack)
}

// attemptOutcome carries one attempt's result out of its goroutine. The
// channel is buffered, so a cell that finally unwinds after the watchdog
// abandoned it does not block forever.
type attemptOutcome struct {
	res camps.Results
	err error
}

// runAttempt executes one cell attempt in its own goroutine so the worker
// can survive panics and abandon hangs. It returns when the attempt
// finishes, or — once the attempt's context is cancelled (cell timeout or
// campaign cancellation) — after at most HangGrace more wall-clock time,
// whichever comes first.
func runAttempt(ctx context.Context, c Cell, opts *Options) (camps.Results, error) {
	ch := make(chan attemptOutcome, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				ch <- attemptOutcome{err: &PanicError{Cell: c.Key(), Value: v, Stack: buf}}
			}
		}()
		res, err := opts.RunCell(ctx, c, opts)
		ch <- attemptOutcome{res: res, err: err}
	}()

	select {
	case out := <-ch:
		return out.res, out.err
	case <-ctx.Done():
	}
	// Cancelled. A well-behaved simulation observes it within one epoch of
	// simulated time; give it HangGrace of wall clock to unwind.
	timer := time.NewTimer(opts.HangGrace)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.res, out.err
	case <-timer.C:
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return camps.Results{}, &HangError{Cell: c.Key(), Grace: opts.HangGrace, Stack: buf}
}
