// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is measured in integer picoseconds (Time). Events scheduled for the
// same instant fire in the order they were scheduled (FIFO tie-breaking via
// a monotonically increasing sequence number), which makes every simulation
// built on this kernel fully deterministic for a given input.
//
// The kernel is allocation-free in steady state: event nodes are pooled on
// the engine and recycled when they fire. The pending queue is a
// near-future bucket ring (a calendar queue covering about one microsecond
// ahead of now, where nearly every event of the HMC model lands) backed by
// a 4-ary heap for events beyond the ring's horizon. A scheduled event
// always fires: there is no cancellation, and a component that no longer
// wants a callback has it return early.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common durations expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// String renders the time in nanoseconds for human consumption.
func (t Time) String() string {
	return fmt.Sprintf("%.3fns", float64(t)/1000.0)
}

// Clock converts between a fixed-frequency cycle domain and simulation
// time. The period is held as an exact rational number of picoseconds
// (num/den), so frequencies whose period is not a whole picosecond — the
// reference 3 GHz core clock is 1000/3 ps — convert without drift:
// NewClock(3000).Cycles(3_000_000) is exactly one millisecond, where the
// old integer-truncated period (333 ps) silently ran the core at 3.003 GHz.
type Clock struct {
	num Time // period numerator, picoseconds
	den Time // period denominator (>= 1); num/den is reduced

	// Cycles' fast path: n*num/den is the 128-bit product n*num*recip
	// shifted right by 63, with recip = ceil(2^63/den) (Granlund &
	// Montgomery, "Division by invariant integers using multiplication",
	// PLDI 1994). The quotient is exact while n*num*den < 2^63, which
	// n <= fastMax guarantees.
	recip, fastMax uint64
}

// NewClock returns a clock with the given frequency in MHz.
// A 3 GHz clock is NewClock(3000).
func NewClock(freqMHz int64) Clock {
	if freqMHz <= 0 {
		panic("sim: clock frequency must be positive")
	}
	g := gcd(1_000_000, freqMHz)
	num, den := 1_000_000/g, freqMHz/g
	return Clock{
		num:     Time(num),
		den:     Time(den),
		recip:   (1<<63-1)/uint64(den) + 1,
		fastMax: uint64(math.MaxInt64 / num / den),
	}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Cycles converts a cycle count to a duration: the time of the n-th clock
// edge, exact whenever n*num is divisible by den and rounded down (sub-ps)
// otherwise. Cumulative conversions do not drift: Cycles(n) is always
// within one picosecond of the true rational instant.
//
// Counts from 0 to fastMax (3.1e15 cycles, 12 simulated days, at
// 3 GHz) take two multiplications. Others, negative ones included, form
// the product n*num in 128 bits: with a reduced rational period the
// factors alone can overflow int64 well inside the representable time
// range (a 2999 MHz clock has num=1000000, den=2999, so the old int64
// product wrapped around ~51 simulated minutes and silently corrupted
// every conversion after that).
func (c Clock) Cycles(n int64) Time {
	if u := uint64(n); u <= c.fastMax {
		hi, lo := bits.Mul64(u*uint64(c.num), c.recip)
		return Time(hi<<1 | lo>>63)
	}
	return Time(mulDivBias(n, int64(c.num), 0, int64(c.den)))
}

// ToCyclesCeil converts a duration to cycles, rounding up: the first cycle
// boundary at or after d. It is the resume-on-next-edge conversion for
// components whose native clock is the cycle domain.
func (c Clock) ToCyclesCeil(d Time) int64 {
	return mulDivBias(int64(d), int64(c.den), uint64(c.num-1), int64(c.num))
}

// mulDivBias computes trunc((a*b + bias) / c) with a full 128-bit
// intermediate, for c > 0 and 0 <= bias < c. Truncation is toward zero,
// matching Go's int64 division, so results agree exactly with the old
// single-word arithmetic everywhere that arithmetic did not overflow. A
// quotient that cannot be represented in int64 panics: the result would
// be meaningless, and wrapping silently is precisely the bug this
// replaces.
func mulDivBias(a, b int64, bias uint64, c int64) int64 {
	neg := (a < 0) != (b < 0)
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = -ua
	}
	if b < 0 {
		ub = -ub
	}
	hi, lo := bits.Mul64(ua, ub)
	if neg {
		// Value is -(hi:lo) + bias. A product smaller than the bias flips
		// the sign back to a (small) positive value.
		if hi == 0 && lo < bias {
			return int64((bias - lo) / uint64(c))
		}
		var borrow uint64
		lo, borrow = bits.Sub64(lo, bias, 0)
		hi -= borrow
	} else {
		var carry uint64
		lo, carry = bits.Add64(lo, bias, 0)
		hi += carry
	}
	uc := uint64(c)
	if hi >= uc {
		panic(fmt.Sprintf("sim: clock conversion overflows int64 (%d * %d / %d)", a, b, c))
	}
	q, _ := bits.Div64(hi, lo, uc)
	if neg {
		if q > 1<<63 {
			panic(fmt.Sprintf("sim: clock conversion overflows int64 (%d * %d / %d)", a, b, c))
		}
		return -int64(q)
	}
	if q > 1<<63-1 {
		panic(fmt.Sprintf("sim: clock conversion overflows int64 (%d * %d / %d)", a, b, c))
	}
	return int64(q)
}

// eventNode is the pooled representation of one scheduled callback.
// Exactly one of fn/fnAt/fnArg is set. fnAt receives the scheduled time,
// which lets completion callbacks of the form func(){ done(t) } be
// scheduled without a closure allocation (see Engine.AtWhen); fnArg
// receives a fixed uint64 carried in the node, which does the same for
// address-taking callbacks (see Engine.AtArg).
type eventNode struct {
	when   Time
	seq    uint64
	arg    uint64 // fnArg's argument
	daemon bool
	fn     func()
	fnAt   func(Time)
	fnArg  func(uint64)
	// prev/next link the node into its ring bucket's list; nil in the heap.
	prev, next *eventNode
}

// nodeChunk is how many event nodes are allocated at once when the free
// list runs dry; steady-state scheduling allocates nothing.
const nodeChunk = 128

// Near-future ring geometry. The ring has ringSize buckets, each
// 1<<ringShift ps wide, so it covers ringSize<<ringShift ps (≈1.05 µs)
// ahead of the bucket holding now: twice the longest delay the HMC model
// schedules (≈512 ns). DESIGN.md §3 records the measurement behind both.
const (
	ringShift = 10
	ringSize  = 1024
	ringMask  = ringSize - 1
	ringWords = ringSize / 64
)

// bucket is one ring slot: an intrusive list in (when, seq) order.
type bucket struct{ head, tail *eventNode }

// Engine owns the event queue and the current simulation time.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now  Time
	seq  uint64
	occ  [ringWords]uint64 // bit s set iff ring[s] is non-empty
	ring [ringSize]bucket
	// ringN counts ring nodes; heap is the far-future overflow, a 4-ary
	// min-heap on (when, seq).
	ringN     int
	heap      []*eventNode
	free      []*eventNode
	fired     uint64
	halted    bool
	nonDaemon int
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// pending returns the number of events still scheduled.
func (e *Engine) pending() int { return e.ringN + len(e.heap) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug, and silently reordering time would make
// results meaningless.
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	e.schedule(t, fn, nil, nil, 0, false)
}

// AtWhen schedules fn to run at absolute time t and invokes it with that
// time. It is At for completion callbacks of the shape
// func() { done(t) }: passing done directly avoids allocating a closure
// just to capture t, which matters on the per-request hot path.
func (e *Engine) AtWhen(t Time, fn func(Time)) {
	if fn == nil {
		panic("sim: nil event function")
	}
	e.schedule(t, nil, fn, nil, 0, false)
}

// AtArg schedules fn to run at absolute time t with a fixed uint64
// argument, carried in the event node. It is At for hot-path callbacks of
// the shape func() { issue(addr) }: binding the method value once and
// passing the address through AtArg avoids allocating a capturing closure
// per scheduled call.
func (e *Engine) AtArg(t Time, fn func(uint64), arg uint64) {
	if fn == nil {
		panic("sim: nil event function")
	}
	e.schedule(t, nil, nil, fn, arg, false)
}

// AtDaemon schedules a daemon event: it fires like any other event while
// the simulation is alive, but does not by itself keep Run going. Use it
// for self-rearming background work (DRAM refresh windows, periodic
// feedback) that would otherwise make Run non-terminating.
func (e *Engine) AtDaemon(t Time, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	e.schedule(t, fn, nil, nil, 0, true)
}

func (e *Engine) schedule(t Time, fn func(), fnAt func(Time), fnArg func(uint64), arg uint64, daemon bool) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	nd := e.alloc()
	nd.when = t
	nd.seq = e.seq
	nd.daemon = daemon
	nd.fn = fn
	nd.fnAt = fnAt
	nd.fnArg = fnArg
	nd.arg = arg
	e.seq++
	if t>>ringShift < e.now>>ringShift+ringSize {
		e.ringPush(nd)
	} else {
		e.heapPush(nd)
	}
	if !daemon {
		e.nonDaemon++
	}
}

// alloc takes a node from the free list, refilling it a chunk at a time so
// steady-state scheduling performs no allocations.
func (e *Engine) alloc() *eventNode {
	if n := len(e.free); n > 0 {
		nd := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return nd
	}
	chunk := make([]eventNode, nodeChunk)
	for i := 1; i < nodeChunk; i++ {
		e.free = append(e.free, &chunk[i])
	}
	return &chunk[0]
}

// recycle returns a fired node to the pool.
func (e *Engine) recycle(nd *eventNode) {
	nd.fn = nil
	nd.fnAt = nil
	nd.fnArg = nil
	e.free = append(e.free, nd)
}

// After schedules fn to run d picoseconds from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+d, fn)
}

// Halt stops Run/RunUntil after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether Halt has been called.
func (e *Engine) Halted() bool { return e.halted }

// Step executes the single earliest pending event.
// It reports false if the queue is empty or the engine has halted.
func (e *Engine) Step() bool {
	if e.halted {
		return false
	}
	nd := e.peek()
	if nd == nil {
		return false
	}
	e.fire(nd)
	return true
}

// fire removes nd, the earliest pending event, advances time to it and
// runs its callback.
func (e *Engine) fire(nd *eventNode) {
	e.unlink(nd)
	if !nd.daemon {
		e.nonDaemon--
	}
	e.now = nd.when
	when := nd.when
	fn, fnAt, fnArg, arg := nd.fn, nd.fnAt, nd.fnArg, nd.arg
	// Recycle before invoking: the callback may schedule new events, and
	// letting it reuse this node immediately keeps the pool at its
	// high-water mark.
	e.recycle(nd)
	e.fired++
	switch {
	case fn != nil:
		fn()
	case fnAt != nil:
		fnAt(when)
	default:
		fnArg(arg)
	}
}

// Run executes events until no non-daemon events remain or Halt is called.
// Daemon events that fall before the last non-daemon event still fire in
// time order; daemon events beyond it stay queued.
func (e *Engine) Run() {
	for !e.halted && e.nonDaemon > 0 && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline. On return the
// engine's time is the deadline; events beyond it remain queued. If Halt
// is called mid-run, time stays at the halting event. A deadline already
// in the past is an explicit no-op: nothing fires and Now() is unchanged.
func (e *Engine) RunUntil(deadline Time) {
	for !e.halted {
		nd := e.peek()
		if nd == nil || nd.when > deadline {
			break
		}
		e.fire(nd)
	}
	if !e.halted && e.now < deadline {
		e.now = deadline
	}
}

// The pending queue has two parts, ordered together by (when, seq). An
// event whose bucket (when>>ringShift) lies less than ringSize buckets past
// now's goes in the ring; any other goes in the far heap. Since now never
// passes a pending event, every ring node's bucket lies within one
// revolution of now's, so a slot never mixes revolutions and the first
// occupied slot at or after now's (circularly) holds the ring's earliest
// events. Heap events are never migrated: peek compares the ring head
// with the heap top, which keeps the order exact across both, FIFO among
// same-instant events included.

// peek returns the earliest pending event by (when, seq), or nil.
func (e *Engine) peek() *eventNode {
	var nd *eventNode
	if e.ringN > 0 {
		nd = e.ring[e.firstSlot()].head
	}
	if len(e.heap) > 0 && (nd == nil || nodeLess(e.heap[0], nd)) {
		nd = e.heap[0]
	}
	return nd
}

// firstSlot returns the first occupied ring slot at or after now's,
// circularly. The ring must be non-empty.
func (e *Engine) firstSlot() int {
	s := int(e.now>>ringShift) & ringMask
	w := s >> 6
	if m := e.occ[w] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	// The last pass revisits word w whole: only its bits below s, the end
	// of the revolution, can still be set.
	for i := 1; i <= ringWords; i++ {
		w = (w + 1) & (ringWords - 1)
		if m := e.occ[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: ring count and occupancy disagree")
}

// ringPush links nd into its bucket after every node with when <= nd.when.
// nd carries the largest seq yet, so this keeps the bucket in (when, seq)
// order. The walk back from the tail passes every later instant already
// in the bucket: on HM1/hybrid (200k instructions per core, seed 1), 54%
// of pushes take zero steps, 17% one, 13% two, 7% three and 8% four or
// more; on LM2/CAMPS-MOD, 62% take zero.
func (e *Engine) ringPush(nd *eventNode) {
	s := int(nd.when>>ringShift) & ringMask
	b := &e.ring[s]
	p := b.tail
	for p != nil && p.when > nd.when {
		p = p.prev
	}
	nd.prev = p
	if p == nil {
		nd.next = b.head
		b.head = nd
	} else {
		nd.next = p.next
		p.next = nd
	}
	if nd.next == nil {
		b.tail = nd
	} else {
		nd.next.prev = nd
	}
	e.occ[s>>6] |= 1 << (s & 63)
	e.ringN++
}

// unlink removes nd, the earliest pending event as peek found it: the
// far heap's top, or else the head of its ring bucket.
func (e *Engine) unlink(nd *eventNode) {
	if len(e.heap) > 0 && e.heap[0] == nd {
		e.heapPop()
		return
	}
	s := int(nd.when>>ringShift) & ringMask
	b := &e.ring[s]
	b.head = nd.next
	if b.head == nil {
		b.tail = nil
		e.occ[s>>6] &^= 1 << (s & 63)
	} else {
		b.head.prev = nil
	}
	nd.next = nil
	e.ringN--
}

// The far heap is a 4-ary min-heap ordered by (when, seq), stored
// flat with parent/child arithmetic: seq rises with every scheduling call,
// so same-instant events fire in FIFO order. Compared with container/heap
// this is monomorphic (no interface dispatch, no any-boxing) and
// shallower (log4 vs log2 levels), which is worth ~2x on the schedule/step
// hot path.

func nodeLess(a, b *eventNode) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(nd *eventNode) {
	e.heap = append(e.heap, nd)
	e.siftUp(len(e.heap)-1, nd)
}

// siftUp places nd at index i or above, shifting larger ancestors down.
func (e *Engine) siftUp(i int, nd *eventNode) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 4
		if !nodeLess(nd, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = nd
}

// siftDown places nd at index i or below, shifting smaller children up.
func (e *Engine) siftDown(i int, nd *eventNode) {
	h := e.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if nodeLess(h[c], h[best]) {
				best = c
			}
		}
		if !nodeLess(h[best], nd) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = nd
}

// heapPop removes the far heap's top.
func (e *Engine) heapPop() {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
}
