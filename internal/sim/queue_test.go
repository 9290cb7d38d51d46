package sim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// refEvent is one pending event of the reference queue.
type refEvent struct {
	when Time
	seq  uint64
	id   int
}

// refQueue is the reference model of the engine's pending queue: an
// unsorted list whose next event is its (when, seq) minimum, found by a
// linear scan. Event ids are handed out in scheduling order, like seq.
type refQueue struct {
	now     Time
	seq     uint64
	ids     int
	pending []refEvent
	fired   []int
}

func (r *refQueue) schedule(t Time) {
	r.pending = append(r.pending, refEvent{when: t, seq: r.seq, id: r.ids})
	r.seq++
	r.ids++
}

func (r *refQueue) cancel(id int) bool {
	for i, ev := range r.pending {
		if ev.id == id {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return true
		}
	}
	return false
}

// popMin removes and returns the earliest event if it is due by deadline.
func (r *refQueue) popMin(deadline Time) (refEvent, bool) {
	best := -1
	for i, ev := range r.pending {
		if best < 0 || ev.when < r.pending[best].when ||
			(ev.when == r.pending[best].when && ev.seq < r.pending[best].seq) {
			best = i
		}
	}
	if best < 0 || r.pending[best].when > deadline {
		return refEvent{}, false
	}
	ev := r.pending[best]
	r.pending = append(r.pending[:best], r.pending[best+1:]...)
	return ev, true
}

// fire mirrors the callbacks diffHarness.schedule builds: record the id,
// and let every fourth top-level event schedule one child.
func (r *refQueue) fire(ev refEvent, child []bool) {
	r.now = ev.when
	r.fired = append(r.fired, ev.id)
	if ev.id%4 == 0 && !child[ev.id] {
		r.schedule(r.now + childDelay(ev.id))
	}
}

func childDelay(id int) Time { return Time(id%7) * 700 * Picosecond }

// diffHarness drives the engine and the reference queue with the same
// operations and compares them after each one.
type diffHarness struct {
	t       *testing.T
	eng     *Engine
	ref     refQueue
	handles []Event
	child   []bool // by id: scheduled from inside a callback
	fired   []int

	// Coverage of the cases the ring must get right.
	farPushes, crossTies int
}

func (h *diffHarness) schedule(t Time, daemon, child bool) {
	id := len(h.handles)
	fn := func() {
		h.fired = append(h.fired, id)
		if id%4 == 0 && !child {
			h.schedule(h.eng.Now()+childDelay(id), false, true)
		}
	}
	if t>>ringShift >= h.eng.Now()>>ringShift+ringSize {
		h.farPushes++
	} else {
		for _, nd := range h.eng.heap {
			if nd.when == t {
				h.crossTies++ // a far-heap event and a ring event share when
				break
			}
		}
	}
	var ev Event
	if daemon {
		ev = h.eng.AtDaemon(t, fn)
	} else {
		ev = h.eng.At(t, fn)
	}
	h.handles = append(h.handles, ev)
	h.child = append(h.child, child)
	if !child {
		h.ref.schedule(t)
	}
}

func (h *diffHarness) step() {
	got := h.eng.Step()
	ev, want := h.ref.popMin(1<<62 - 1)
	if want {
		h.ref.fire(ev, h.child)
	}
	if got != want {
		h.t.Fatalf("Step() = %v, reference %v", got, want)
	}
}

func (h *diffHarness) runUntil(deadline Time) {
	h.eng.RunUntil(deadline)
	for {
		ev, ok := h.ref.popMin(deadline)
		if !ok {
			break
		}
		h.ref.fire(ev, h.child)
	}
	if h.ref.now < deadline {
		h.ref.now = deadline
	}
}

func (h *diffHarness) compare(op string) {
	h.t.Helper()
	if len(h.fired) != len(h.ref.fired) {
		h.t.Fatalf("after %s: fired %d events, reference %d", op, len(h.fired), len(h.ref.fired))
	}
	for i := range h.fired {
		if h.fired[i] != h.ref.fired[i] {
			h.t.Fatalf("after %s: fire %d is event %d, reference %d", op, i, h.fired[i], h.ref.fired[i])
		}
	}
	if got, want := h.eng.Pending(), len(h.ref.pending); got != want {
		h.t.Fatalf("after %s: Pending() = %d, reference %d", op, got, want)
	}
	if got, want := h.eng.Now(), h.ref.now; got != want {
		h.t.Fatalf("after %s: Now() = %v, reference %v", op, got, want)
	}
	if err := h.eng.CheckQueue(); err != nil {
		h.t.Fatalf("after %s: %v", op, err)
	}
}

// TestEngineMatchesReferenceQueue drives random At/AtDaemon/Cancel/Step/
// RunUntil sequences against the reference queue and requires the same
// fire order, Pending() and Now() after every operation. Times cluster on
// the ring's edges: same-instant ties, several instants in one bucket, the
// last ring instant and the first far ones, events revolutions ahead, far
// events caught up by ring events at the same instant, and RunUntil
// deadlines that carry the ring across revolutions.
func TestEngineMatchesReferenceQueue(t *testing.T) {
	const width = Time(1) << ringShift
	const rev = Time(ringSize) * width
	rng := rand.New(rand.NewSource(15))
	var farPushes, crossTies int
	for trial := 0; trial < 60; trial++ {
		h := &diffHarness{t: t, eng: NewEngine()}
		var used, far []Time // instants scheduled so far, all and far ones
		pick := func() Time {
			now := h.eng.Now()
			horizon := (now>>ringShift + ringSize) << ringShift
			var t Time
			switch rng.Intn(9) {
			case 0: // same instant as an earlier event, or now
				t = now
				if len(used) > 0 {
					t = max(now, used[rng.Intn(len(used))])
				}
			case 8: // same instant as an event scheduled into the far heap
				t = now
				if len(far) > 0 {
					t = max(now, far[rng.Intn(len(far))])
				}
			case 1: // a few instants inside one bucket near now
				t = max(now, now&^(width-1)+Time(rng.Intn(3))*width+Time(rng.Intn(4))*width/4)
			case 2: // the last ring instant, the first far one, one past it
				t = horizon - 1 + Time(rng.Intn(3))
			case 3: // several revolutions ahead
				t = now + Time(1+rng.Intn(4))*rev + Time(rng.Int63n(int64(rev)))
			default: // the model's dense band, 1–512 ns ahead
				t = now + Nanosecond + Time(rng.Int63n(int64(511*Nanosecond)))
			}
			used = append(used, t)
			if t >= horizon {
				far = append(far, t)
			}
			return t
		}
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(20); {
			case k < 8:
				h.schedule(pick(), false, false)
				h.compare("At")
			case k < 10:
				h.schedule(pick(), true, false)
				h.compare("AtDaemon")
			case k < 13:
				if len(h.handles) == 0 {
					continue
				}
				id := rng.Intn(len(h.handles))
				got := h.eng.Cancel(h.handles[id])
				want := h.ref.cancel(id)
				if got != want {
					t.Fatalf("trial %d: Cancel(event %d) = %v, reference %v", trial, id, got, want)
				}
				h.compare("Cancel")
			case k < 17:
				h.step()
				h.compare("Step")
			default:
				now := h.eng.Now()
				var deadline Time
				switch rng.Intn(4) {
				case 0: // in the past or now: fires only the now instant
					deadline = now - Time(rng.Intn(2))
				case 1: // across one or more revolutions
					deadline = now + Time(1+rng.Intn(3))*rev + Time(rng.Int63n(int64(rev)))
				default:
					deadline = now + Time(rng.Int63n(int64(600*Nanosecond)))
				}
				h.runUntil(deadline)
				h.compare("RunUntil")
			}
		}
		for h.eng.Pending() > 0 {
			h.step()
			h.compare("drain")
		}
		farPushes += h.farPushes
		crossTies += h.crossTies
	}
	t.Logf("%d far-heap pushes, %d ring/heap ties", farPushes, crossTies)
	// The generator must actually reach the far heap and the ties across it.
	if farPushes < 500 || crossTies < 50 {
		t.Fatalf("coverage: %d far-heap pushes, %d ring/heap ties; the time mix no longer reaches them", farPushes, crossTies)
	}
}

// Every property CheckQueue guards is caught when corrupted.
func TestCheckQueueCatchesCorruption(t *testing.T) {
	const width = Time(1) << ringShift
	far := Time(2*ringSize) * width
	// build returns an engine with three events in one bucket, one in
	// another, and three in the far heap.
	build := func() *Engine {
		eng := NewEngine()
		fn := func() {}
		eng.At(5*width, fn)
		eng.At(5*width+1, fn)
		eng.AtDaemon(5*width+1, fn)
		eng.At(9*width, fn)
		eng.At(far, fn)
		eng.At(far+1, fn)
		eng.At(far+2, fn)
		if err := eng.CheckQueue(); err != nil {
			t.Fatalf("intact queue: %v", err)
		}
		return eng
	}
	slot := func(t Time) int { return int(t>>ringShift) & ringMask }
	cases := []struct {
		name    string
		corrupt func(e *Engine)
		want    string
	}{
		{"occupancy bit cleared", func(e *Engine) { e.occ[0] &^= 1 << slot(5*width) }, "occupancy bit"},
		{"stray occupancy bit", func(e *Engine) { e.occ[1] |= 1 }, "occupancy bit"},
		{"bucket out of order", func(e *Engine) { e.ring[slot(5*width)].head.next.when = 5*width - 1 }, "after"},
		{"same instant out of seq order", func(e *Engine) {
			b := e.ring[slot(5*width)]
			b.head.next.seq, b.tail.seq = b.tail.seq, b.head.next.seq
		}, "after"},
		{"broken back-link", func(e *Engine) { e.ring[slot(5*width)].tail.prev = nil }, "back-link"},
		{"stale tail", func(e *Engine) { b := &e.ring[slot(5*width)]; b.tail = b.head }, "tail"},
		{"node in the wrong bucket", func(e *Engine) { e.ring[slot(9*width)].head.when = 8 * width }, "belongs in slot"},
		{"node a revolution ahead", func(e *Engine) {
			e.ring[slot(9*width)].head.when = 9*width + Time(ringSize)*width
		}, "outside the revolution"},
		{"ring node with a heap index", func(e *Engine) { e.ring[slot(9*width)].head.idx = 0 }, "heap index"},
		{"ring count", func(e *Engine) { e.ringN++ }, "count says"},
		{"far heap order", func(e *Engine) {
			e.heap[0], e.heap[1] = e.heap[1], e.heap[0]
			e.heap[0].idx, e.heap[1].idx = 0, 1
		}, "precedes its parent"},
		{"far heap index", func(e *Engine) { e.heap[2].idx = 1 }, "records index"},
		{"far event in the past", func(e *Engine) { e.heap[0].when = -1 }, "before now"},
		{"non-daemon count", func(e *Engine) { e.nonDaemon-- }, "non-daemon"},
	}
	for _, tc := range cases {
		eng := build()
		tc.corrupt(eng)
		err := eng.CheckQueue()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckQueue() = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}

	// The checker runs it as the built-in event-queue invariant.
	eng := build()
	c := NewChecker(eng, width)
	eng.At(2*width, func() { eng.ringN++ })
	eng.Run()
	var ie *InvariantError
	if err := c.Err(); !errors.As(err, &ie) || ie.Name != "event-queue" {
		t.Fatalf("checker on a corrupted queue reported %v, want the event-queue invariant", err)
	}
}
