package sim

import (
	"errors"
	"fmt"
)

// ErrInvariant matches every invariant violation under errors.Is.
var ErrInvariant = errors.New("sim: invariant violated")

// Invariant is one named structural property of a simulation, checked
// periodically. It returns nil while the property holds. Checks must be
// read-only: a checker runs on the daemon queue and must not perturb the
// simulation it observes.
type Invariant struct {
	Name  string
	Check func() error
}

// InvariantError is the typed error a failed check produces. It wraps
// both ErrInvariant and the check's own error, so callers can match the
// class (errors.Is(err, sim.ErrInvariant)) or the specific cause.
type InvariantError struct {
	Name string // the violated invariant
	At   Time   // simulation time of the check
	Err  error  // what the check reported
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("sim: invariant %q violated at %v: %v", e.Name, e.At, e.Err)
}

// Unwrap exposes both the class sentinel and the underlying cause.
func (e *InvariantError) Unwrap() []error { return []error{ErrInvariant, e.Err} }

// Checker runs registered invariants every interval of simulated time on
// the daemon queue (so checking never extends a run) and halts the engine
// on the first violation, preserving it as a typed error instead of
// letting corrupted state propagate into results.
type Checker struct {
	eng    *Engine
	ticker *Ticker
	inv    []Invariant
	err    *InvariantError
	last   Time // previous check time, for the built-in monotone clock
}

// NewChecker arms a checker on eng with the given interval. Two built-in
// invariants are always registered: monotone-clock (engine time never
// moves backwards between checks) and event-queue (Engine.CheckQueue);
// add model-level invariants with Register before the simulation runs.
func NewChecker(eng *Engine, interval Time) *Checker {
	c := &Checker{eng: eng, last: eng.Now()}
	c.Register(Invariant{Name: "monotone-clock", Check: func() error {
		if now := eng.Now(); now < c.last {
			return fmt.Errorf("clock moved backwards: %v after %v", now, c.last)
		}
		return nil
	}}, Invariant{Name: "event-queue", Check: eng.CheckQueue})
	c.ticker = NewDaemonTicker(eng, interval, c.run)
	return c
}

// Register adds an invariant. Registration order is check order, which
// keeps violation reports deterministic when several properties break at
// once (the first registered failing invariant wins).
func (c *Checker) Register(inv ...Invariant) {
	for _, iv := range inv {
		if iv.Name == "" || iv.Check == nil {
			panic("sim: invariant needs a name and a check")
		}
	}
	c.inv = append(c.inv, inv...)
}

// run executes one round of checks; on the first failure it records the
// violation and halts the engine.
func (c *Checker) run() {
	for _, iv := range c.inv {
		if err := iv.Check(); err != nil {
			c.err = &InvariantError{Name: iv.Name, At: c.eng.Now(), Err: err}
			c.ticker.Stop()
			c.eng.Halt()
			return
		}
	}
	c.last = c.eng.Now()
}

// Final runs one last round of checks immediately (outside the ticker),
// for end-of-run validation after the engine has drained. It is a no-op
// if a violation was already recorded.
func (c *Checker) Final() {
	if c.err == nil {
		c.run()
	}
}

// Err returns the first recorded violation, or nil. The concrete type is
// *InvariantError; it matches ErrInvariant under errors.Is.
func (c *Checker) Err() error {
	if c.err == nil {
		return nil
	}
	return c.err
}

// Stop cancels future checks.
func (c *Checker) Stop() { c.ticker.Stop() }

// CheckQueue verifies the structure of the pending queue: the ring's
// occupancy bits match its non-empty buckets; each bucket is in (when, seq)
// order with consistent back-links; each ring node sits in its own bucket,
// within one revolution of now; the nodes found add up to Pending(); and
// the far heap keeps the heap property with correct positions. It is
// read-only and O(ringSize + Pending()).
func (e *Engine) CheckQueue() error {
	nowBucket := e.now >> ringShift
	ringN, nonDaemon := 0, 0
	for s := range e.ring {
		b := &e.ring[s]
		if occupied := e.occ[s>>6]&(1<<(s&63)) != 0; occupied != (b.head != nil) {
			return fmt.Errorf("ring slot %d: occupancy bit %v, non-empty %v", s, occupied, b.head != nil)
		}
		var prev *eventNode
		for nd := b.head; nd != nil; prev, nd = nd, nd.next {
			switch {
			case nd.prev != prev:
				return fmt.Errorf("ring slot %d: broken back-link at event (%v, %d)", s, nd.when, nd.seq)
			case prev != nil && !nodeLess(prev, nd):
				// Also ends the walk of a corrupted, cyclic list.
				return fmt.Errorf("ring slot %d: event (%v, %d) after (%v, %d)", s, nd.when, nd.seq, prev.when, prev.seq)
			case nd.idx != inRing:
				return fmt.Errorf("ring slot %d: event (%v, %d) has heap index %d", s, nd.when, nd.seq, nd.idx)
			case int(nd.when>>ringShift)&ringMask != s:
				return fmt.Errorf("ring slot %d: event at %v belongs in slot %d", s, nd.when, int(nd.when>>ringShift)&ringMask)
			case nd.when < e.now || nd.when>>ringShift >= nowBucket+ringSize:
				return fmt.Errorf("ring slot %d: event at %v outside the revolution from now %v", s, nd.when, e.now)
			}
			ringN++
			if !nd.daemon {
				nonDaemon++
			}
		}
		if b.tail != prev {
			return fmt.Errorf("ring slot %d: tail is not the last event", s)
		}
	}
	if ringN != e.ringN {
		return fmt.Errorf("ring holds %d events, count says %d (Pending %d, far heap %d)", ringN, e.ringN, e.Pending(), len(e.heap))
	}
	for i, nd := range e.heap {
		switch {
		case nd.idx != int32(i):
			return fmt.Errorf("far heap position %d: event records index %d", i, nd.idx)
		case i > 0 && nodeLess(nd, e.heap[(i-1)/4]):
			return fmt.Errorf("far heap position %d: event (%v, %d) precedes its parent", i, nd.when, nd.seq)
		case nd.when < e.now:
			return fmt.Errorf("far heap position %d: event at %v before now %v", i, nd.when, e.now)
		}
		if !nd.daemon {
			nonDaemon++
		}
	}
	if nonDaemon != e.nonDaemon {
		return fmt.Errorf("%d non-daemon events pending, count says %d", nonDaemon, e.nonDaemon)
	}
	return nil
}
