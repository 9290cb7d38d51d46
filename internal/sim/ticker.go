package sim

// Ticker invokes a callback on every edge of a clock until stopped. Its
// ticks ride the daemon queue: they fire while other (non-daemon) work
// keeps the simulation alive but never extend it. RunContext's epoch
// snapshot, the halt watcher and the invariant checker use it, so
// observing and checking a run can never change when it ends.
type Ticker struct {
	eng      *Engine
	interval Time
	fn       func()
	stopped  bool
	tick     func() // rearm closure, built once
}

// NewDaemonTicker schedules fn every interval picoseconds on the daemon
// queue, first firing one interval from now.
func NewDaemonTicker(eng *Engine, interval Time, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{eng: eng, interval: interval, fn: fn}
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
	t.eng.AtDaemon(t.eng.Now()+t.interval, t.tick)
}

// stop ends the ticks: a tick already queued still fires, but returns
// without calling fn or rearming.
func (t *Ticker) stop() {
	t.stopped = true
}

// NewHaltWatcher arms a daemon ticker that polls cond every interval of
// simulated time and halts the engine the first time cond returns true.
// It is the cancellation hook for externally-driven shutdown (for example
// a context.Context): the poll rides the daemon queue, so it never extends
// a simulation that drains naturally, and a cancelled run stops within one
// interval of simulated time.
func NewHaltWatcher(eng *Engine, interval Time, cond func() bool) *Ticker {
	var t *Ticker
	t = NewDaemonTicker(eng, interval, func() {
		if cond() {
			eng.Halt()
			t.stop()
		}
	})
	return t
}
