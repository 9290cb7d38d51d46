package sim

import "camps/internal/knob"

// Run is a simulation entry point; the global write it reaches lives
// two packages away.
func Run() {
	knob.Set(4)
}

var hooks []string

// RegisterHook gets no exemption for its name: a Register* function
// writing package state is a runtime entry like any other.
func RegisterHook(name string) {
	hooks = append(hooks, name) // want `package-level sim.hooks written outside init: sim.RegisterHook is reachable from runtime path sim.RegisterHook`
}
