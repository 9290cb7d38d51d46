package sim

// NewDaemonTicker invokes fn every interval picoseconds, first firing one
// interval from now. Its ticks ride the daemon queue: they fire while
// other (non-daemon) work keeps the simulation alive but never extend it.
// RunContext's epoch snapshot, the halt watcher and the invariant checker
// use it, so observing and checking a run can never change when it ends.
// Once the engine halts, no tick fires again.
func NewDaemonTicker(eng *Engine, interval Time, fn func()) {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	var tick func()
	tick = func() {
		fn()
		eng.AtDaemon(eng.Now()+interval, tick)
	}
	eng.AtDaemon(eng.Now()+interval, tick)
}

// NewHaltWatcher arms a daemon ticker that polls cond every interval of
// simulated time and halts the engine the first time cond returns true.
// It is the cancellation hook for externally-driven shutdown (for example
// a context.Context): the poll rides the daemon queue, so it never extends
// a simulation that drains naturally, and a cancelled run stops within one
// interval of simulated time.
func NewHaltWatcher(eng *Engine, interval Time, cond func() bool) {
	NewDaemonTicker(eng, interval, func() {
		if cond() {
			eng.Halt()
		}
	})
}
