package sim

// Ticker invokes a callback on every edge of a clock until stopped.
// It is used for periodic maintenance work such as DRAM refresh windows
// and epoch-based feedback in prefetchers.
type Ticker struct {
	eng      *Engine
	interval Time
	fn       func()
	ev       Event
	stopped  bool
	daemon   bool
	tick     func() // rearm closure, built once
}

// NewTicker schedules fn every interval picoseconds, first firing one
// interval from now.
func NewTicker(eng *Engine, interval Time, fn func()) *Ticker {
	return newTicker(eng, interval, fn, false)
}

// NewDaemonTicker is NewTicker with daemon scheduling: ticks fire while
// other (non-daemon) work keeps the simulation alive but never extend it.
// It is the epoch hook used for periodic observability snapshots —
// metrics collection must not change when a simulation ends.
func NewDaemonTicker(eng *Engine, interval Time, fn func()) *Ticker {
	return newTicker(eng, interval, fn, true)
}

func newTicker(eng *Engine, interval Time, fn func(), daemon bool) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{eng: eng, interval: interval, fn: fn, daemon: daemon}
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	if t.daemon {
		t.ev = t.eng.AtDaemon(t.eng.Now()+t.interval, t.tick)
	} else {
		t.ev = t.eng.After(t.interval, t.tick)
	}
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.eng.Cancel(t.ev)
}

// NewHaltWatcher arms a daemon ticker that polls cond every interval of
// simulated time and halts the engine the first time cond returns true.
// It is the cancellation hook for externally-driven shutdown (for example
// a context.Context): the poll rides the daemon queue, so it never extends
// a simulation that drains naturally, and a cancelled run stops within one
// interval of simulated time. The returned ticker can be stopped early.
func NewHaltWatcher(eng *Engine, interval Time, cond func() bool) *Ticker {
	var t *Ticker
	t = newTicker(eng, interval, func() {
		if cond() {
			eng.Halt()
			t.Stop()
		}
	}, true)
	return t
}
