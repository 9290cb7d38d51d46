package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// toCycles converts a duration to whole elapsed cycles (floor), the
// inverse the tests check Cycles against.
func toCycles(c Clock, d Time) int64 { return mulDivBias(int64(d), int64(c.den), 0, int64(c.num)) }

// nextEdge is the earliest time >= t that falls on a clock edge.
func nextEdge(c Clock, t Time) Time { return c.Cycles(c.ToCyclesCeil(t)) }

func TestClockConversions(t *testing.T) {
	cpu := NewClock(3000) // 3 GHz: period is 1000/3 ps, not a whole picosecond
	if cpu.num != 1000 || cpu.den != 3 {
		t.Fatalf("3GHz period = %d/%d ps, want 1000/3", cpu.num, cpu.den)
	}
	dram := NewClock(800) // DDR3-1600 bus clock
	if dram.num != 1250 || dram.den != 1 {
		t.Fatalf("800MHz period = %d/%d ps, want 1250/1", dram.num, dram.den)
	}
	if got := dram.Cycles(11); got != 13750 {
		t.Fatalf("11 DRAM cycles = %v ps, want 13750", got)
	}
	if got := toCycles(dram, 13750); got != 11 {
		t.Fatalf("toCycles(13750) = %d, want 11", got)
	}
}

// Regression for the clock-period truncation drift: the old implementation
// stored the 3 GHz period as trunc(1e6/3000) = 333 ps, so 3 million cycles
// measured 999 µs — the core silently ran at 3.003 GHz. The rational clock
// must land exactly on one millisecond.
func TestClockExactRational(t *testing.T) {
	cpu := NewClock(3000)
	if got := cpu.Cycles(3_000_000); got != Millisecond {
		t.Fatalf("3M cycles at 3GHz = %d ps, want exactly %d (1ms); drift = %d ps",
			got, Millisecond, got-Millisecond)
	}
	if got := toCycles(cpu, Millisecond); got != 3_000_000 {
		t.Fatalf("toCycles(1ms) = %d, want 3000000", got)
	}
	// Cumulative conversions stay within one picosecond of the true
	// rational instant at any cycle count.
	for _, n := range []int64{1, 2, 3, 7, 999, 1_000_001, 3_000_000_000} {
		got := cpu.Cycles(n)
		exact := float64(n) * 1000.0 / 3.0
		if d := float64(got) - exact; d < -1 || d > 0 {
			t.Fatalf("Cycles(%d) = %d, exact %.2f: rounding outside [-1,0]", n, got, exact)
		}
	}
	// Ceil conversion: first edge at or after an instant.
	if got := cpu.ToCyclesCeil(1); got != 1 {
		t.Fatalf("ToCyclesCeil(1) = %d, want 1", got)
	}
	if got := cpu.ToCyclesCeil(333); got != 1 { // edge 1 is at 333.33 ps
		t.Fatalf("ToCyclesCeil(333) = %d, want 1", got)
	}
	if got := cpu.ToCyclesCeil(334); got != 2 {
		t.Fatalf("ToCyclesCeil(334) = %d, want 2", got)
	}
}

// Cycles' reciprocal fast path must give the 128-bit division's result
// at every count it takes, and counts past it (negative, or beyond
// fastMax) must still reach the division, overflow panics included.
func TestClockCyclesFastPathExact(t *testing.T) {
	outcome := func(f func() Time) (v Time, panicked bool) {
		defer func() { panicked = recover() != nil }()
		return f(), false
	}
	rng := rand.New(rand.NewSource(28))
	for _, mhz := range []int64{3000, 2999, 1250, 1} {
		c := NewClock(mhz)
		lim := int64(c.fastMax)
		ns := []int64{0, 1, 2, 3, int64(c.den) - 1, int64(c.den), int64(c.den) + 1,
			lim - 1, lim, lim + 1, 2 * lim, math.MaxInt64, -1, -2, -int64(c.den), math.MinInt64}
		for i := 0; i < 200_000; i++ {
			ns = append(ns, rng.Int63n(lim+1), rng.Int63n(1<<32), lim-rng.Int63n(1<<32))
		}
		for _, n := range ns {
			got, gotPanic := outcome(func() Time { return c.Cycles(n) })
			want, wantPanic := outcome(func() Time { return Time(mulDivBias(n, int64(c.num), 0, int64(c.den))) })
			if got != want || gotPanic != wantPanic {
				t.Fatalf("%d MHz: Cycles(%d) = %d (panic %v), mulDivBias %d (panic %v)",
					mhz, n, got, gotPanic, want, wantPanic)
			}
		}
	}
	// A 3 GHz core reaches the division only after 3.1e15 cycles, about
	// 12 simulated days.
	if lim := NewClock(3000).fastMax; lim < 3e15 {
		t.Fatalf("3GHz fast path ends at %d cycles", lim)
	}
}

func TestClockNextEdge(t *testing.T) {
	c := NewClock(10_000) // 100 ps period
	cases := []struct{ in, want Time }{
		{0, 0}, {1, 100}, {99, 100}, {100, 100}, {101, 200},
	}
	for _, tc := range cases {
		if got := nextEdge(c, tc.in); got != tc.want {
			t.Errorf("nextEdge(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestClockPanicsOnBadFrequency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	eng := NewEngine()
	var order []Time
	for _, tm := range []Time{50, 10, 30, 20, 40} {
		tm := tm
		eng.At(tm, func() { order = append(order, tm) })
	}
	eng.Run()
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
	if eng.Now() != 50 {
		t.Fatalf("final time %v, want 50", eng.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		eng.At(7, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order at %d: %v", i, order[:i+1])
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine()
	var hits []Time
	eng.At(10, func() {
		hits = append(hits, eng.Now())
		eng.After(5, func() { hits = append(hits, eng.Now()) })
	})
	eng.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested scheduling produced %v, want [10 15]", hits)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	eng := NewEngine()
	eng.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		eng.At(50, func() {})
	})
	eng.Run()
}

// Pooled nodes must make the schedule/fire cycle allocation-free in steady
// state; this is the 0 allocs/op acceptance bar for the hot path.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Warm the pool past its high-water mark.
	for i := 0; i < 4*nodeChunk; i++ {
		eng.At(eng.Now(), fn)
	}
	for eng.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.At(eng.Now()+1, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+Step allocates %.1f per op in steady state, want 0", allocs)
	}

	// The same holds for a mix of ring and far-heap events, once the pool
	// and the far heap have reached their high-water marks.
	far := Time(3*ringSize) << ringShift
	i := fillSteady(eng, fn)
	mixed := func() {
		now := eng.Now()
		eng.At(now+steadyDeltas[i%len(steadyDeltas)], fn)
		if i%16 == 0 {
			eng.AtDaemon(now+far, fn)
			eng.Step()
		}
		eng.Step()
		i++
	}
	for range 20000 {
		mixed()
	}
	allocs = testing.AllocsPerRun(1000, mixed)
	if allocs != 0 {
		t.Fatalf("ring/far mix allocates %.1f per op in steady state, want 0", allocs)
	}
	if len(eng.heap) == 0 || eng.ringN == 0 {
		t.Fatalf("mix left %d far and %d ring events pending; want both in use", len(eng.heap), eng.ringN)
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	for _, tm := range []Time{10, 20, 30, 40} {
		tm := tm
		eng.At(tm, func() { fired = append(fired, tm) })
	}
	eng.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %d events, want 2", len(fired))
	}
	if eng.Now() != 25 {
		t.Fatalf("time after RunUntil(25) = %v, want 25", eng.Now())
	}
	if eng.pending() != 2 {
		t.Fatalf("pending = %d, want 2", eng.pending())
	}
	eng.RunUntil(eng.Now() + 10)
	if len(fired) != 3 || eng.Now() != 35 {
		t.Fatalf("RunUntil(now+10): fired=%v now=%v", fired, eng.Now())
	}
}

func TestEngineRunUntilBeforeFirstEvent(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.At(100, func() { fired = true })
	eng.RunUntil(50)
	if fired {
		t.Fatal("event beyond the deadline fired")
	}
	if eng.Now() != 50 {
		t.Fatalf("time advanced to %v, want the deadline 50", eng.Now())
	}
	if eng.pending() != 1 {
		t.Fatalf("pending = %d, want 1", eng.pending())
	}
	eng.Run()
	if !fired || eng.Now() != 100 {
		t.Fatalf("after Run: fired=%v now=%v", fired, eng.Now())
	}
}

func TestEngineHaltInsideDaemonEvent(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	eng.AtDaemon(10, func() {
		fired = append(fired, eng.Now())
		eng.Halt()
	})
	eng.At(20, func() { fired = append(fired, eng.Now()) })
	eng.RunUntil(100)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want only the daemon at 10", fired)
	}
	if !eng.Halted() {
		t.Fatal("Halted() false after daemon Halt")
	}
	// Halt inside RunUntil must pin time at the halting event, not the
	// deadline.
	if eng.Now() != 10 {
		t.Fatalf("time = %v after halt at 10, want 10", eng.Now())
	}
}

func TestEngineRunForZero(t *testing.T) {
	eng := NewEngine()
	eng.At(5, func() {})
	eng.Run()
	var fired []int
	eng.At(eng.Now(), func() {
		fired = append(fired, 1)
		// Nested same-instant work also falls inside RunUntil(now).
		eng.At(eng.Now(), func() { fired = append(fired, 2) })
	})
	eng.At(eng.Now()+1, func() { fired = append(fired, 3) })
	eng.RunUntil(eng.Now())
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("RunUntil(now) fired %v, want the two now-instant events", fired)
	}
	if eng.Now() != 5 {
		t.Fatalf("RunUntil(now) moved time to %v, want 5", eng.Now())
	}
}

func TestEngineHalt(t *testing.T) {
	eng := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		eng.At(Time(i), func() {
			count++
			if count == 3 {
				eng.Halt()
			}
		})
	}
	eng.Run()
	if count != 3 {
		t.Fatalf("halt did not stop the engine: fired %d", count)
	}
	if !eng.Halted() {
		t.Fatal("Halted() false after Halt")
	}
}

func TestEngineFiredCounter(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 17; i++ {
		eng.At(Time(i), func() {})
	}
	eng.Run()
	if eng.Fired() != 17 {
		t.Fatalf("Fired() = %d, want 17", eng.Fired())
	}
}

// Property: for any set of scheduled times, the engine fires them in
// nondecreasing time order and ends at the max time.
func TestEngineOrderingProperty(t *testing.T) {
	prop := func(times []uint16) bool {
		eng := NewEngine()
		var fired []Time
		for _, raw := range times {
			tm := Time(raw)
			eng.At(tm, func() { fired = append(fired, tm) })
		}
		eng.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i-1] > fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	eng := NewEngine()
	var ticks []Time
	NewDaemonTicker(eng, 100, func() { ticks = append(ticks, eng.Now()) })
	eng.RunUntil(550)
	want := []Time{100, 200, 300, 400, 500}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

var benchTime Time

// BenchmarkClockCycles is one cycle-to-time conversion on the 3 GHz core
// clock, which the core model makes for every trace record.
func BenchmarkClockCycles(b *testing.B) {
	c := NewClock(3000)
	b.ReportAllocs()
	var sum Time
	for i := 0; i < b.N; i++ {
		sum += c.Cycles(int64(i) << 8)
	}
	benchTime = sum
}

func BenchmarkEngineSchedule(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.At(Time(i), fn)
		if eng.pending() > 1024 {
			for eng.pending() > 0 {
				eng.Step()
			}
		}
	}
}

// steadyDeltas are scheduling delays, in ps, shaped like the simulator's
// own on the memory-intensive HM1 mix: 0.5–512 ns ahead, most of them 4–64 ns,
// one per octave-weighted share of the measured histogram, on a 200 ps grid
// and in a fixed scrambled order. With steadyPending events queued, about
// a third of them land on an instant already pending, as in the simulator.
var steadyDeltas = [...]Time{
	600, 17000, 5400, 37800, 8400, 60600, 13000, 1400,
	23000, 6200, 44600, 9800, 160000, 14400, 4200, 29000,
	7000, 51600, 11200, 448000, 15800, 5000, 35600, 8000,
	58400, 12600, 1000, 21000, 6000, 42400, 9200, 96000,
	14000, 3000, 27000, 6800, 49200, 10600, 320000, 15400,
	4800, 33200, 7600, 56000, 12000, 800, 19000, 5600,
	40000, 8800, 63000, 13600, 1800, 25000, 6600, 47000,
	10200, 224000, 15000, 4600, 31000, 7400, 53800, 11600,
}

// steadyPending is about the queue length the simulator holds on HM1
// (186 pending on average).
const steadyPending = 190

// fillSteady queues steadyPending events with delays from steadyDeltas
// and returns the index of the next delay to use.
func fillSteady(eng *Engine, fn func()) int {
	i := 0
	for eng.pending() < steadyPending {
		eng.At(eng.Now()+steadyDeltas[i%len(steadyDeltas)], fn)
		i++
	}
	return i
}

// BenchmarkEngineSteadyQueue is one Step plus one schedule on a queue held
// at steadyPending events with delays drawn from steadyDeltas: the shape
// of the simulator's real traffic, where BenchmarkEngineSchedule's
// 1-ps-apart, drain-at-1024 pattern is a best case for any queue.
func BenchmarkEngineSteadyQueue(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	i := fillSteady(eng, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		eng.Step()
		eng.At(eng.Now()+steadyDeltas[i%len(steadyDeltas)], fn)
		i++
	}
}

// walksBack reports whether a push at t walks back at least one step in
// its ring bucket: whether the bucket's last event is later than t (never
// for a push to the far heap).
func walksBack(e *Engine, t Time) bool {
	if t>>ringShift >= e.now>>ringShift+ringSize {
		return false
	}
	tail := e.ring[int(t>>ringShift)&ringMask].tail
	return tail != nil && tail.when > t
}

// The benchmark's traffic keeps the shape it claims: a third of the fires
// land on the instant of the one before, as the simulator's do (32% on
// HM1), and about half the pushes walk back over at least one later event
// of their bucket, as the simulator's do (46% on HM1/hybrid, 38% on
// LM2/CAMPS-MOD), so the benchmark times the walk the simulator pays for.
func TestSteadyQueueTrafficShape(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	i := fillSteady(eng, fn)
	const steps = 50000
	same, walked := 0, 0
	for n := 0; n < steps; n++ {
		before := eng.Now()
		eng.Step()
		if eng.Now() == before {
			same++
		}
		at := eng.Now() + steadyDeltas[i%len(steadyDeltas)]
		if walksBack(eng, at) {
			walked++
		}
		eng.At(at, fn)
		i++
	}
	if frac := float64(same) / steps; frac < 0.25 || frac > 0.40 {
		t.Fatalf("%.2f of fires share the previous instant, want about a third", frac)
	}
	if frac := float64(walked) / steps; frac < 0.35 || frac > 0.65 {
		t.Fatalf("%.2f of pushes walk back at least one step, want about half", frac)
	}
	for _, d := range steadyDeltas {
		if d < Nanosecond/2 || d > 512*Nanosecond {
			t.Fatalf("delay %v outside the simulator's 0.5–512 ns band", d)
		}
	}
}

func TestDaemonEventsDoNotKeepRunAlive(t *testing.T) {
	eng := NewEngine()
	daemonFired := 0
	var rearm func(Time)
	rearm = func(at Time) {
		eng.AtDaemon(at, func() {
			daemonFired++
			rearm(eng.Now() + 10) // self-rearming background work
		})
	}
	rearm(5)
	normal := 0
	eng.At(27, func() { normal++ })
	eng.Run() // must terminate despite the endless daemon chain
	if normal != 1 {
		t.Fatal("normal event did not fire")
	}
	// Daemon events at 5, 15, 25 precede the normal event at 27 and fire;
	// the one at 35 stays queued.
	if daemonFired != 3 {
		t.Fatalf("daemon fired %d times, want 3", daemonFired)
	}
	if eng.Now() != 27 {
		t.Fatalf("time = %v, want 27", eng.Now())
	}
}

func TestRunWithOnlyDaemonEventsReturnsImmediately(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.AtDaemon(10, func() { fired = true })
	eng.Run()
	if fired {
		t.Fatal("daemon event fired with no non-daemon work")
	}
	if eng.pending() != 1 {
		t.Fatal("daemon event should remain queued")
	}
}

func TestRunUntilFiresDaemonEvents(t *testing.T) {
	eng := NewEngine()
	fired := 0
	eng.AtDaemon(10, func() { fired++ })
	eng.AtDaemon(20, func() { fired++ })
	eng.RunUntil(15)
	if fired != 1 {
		t.Fatalf("RunUntil fired %d daemon events, want 1", fired)
	}
}

func TestDaemonTickerFiresWithoutExtendingRun(t *testing.T) {
	eng := NewEngine()
	var ticks []Time
	NewDaemonTicker(eng, 100, func() { ticks = append(ticks, eng.Now()) })
	eng.At(250, func() {}) // non-daemon work keeps the run alive to 250
	eng.Run()              // must stop at 250, not tick forever
	want := []Time{100, 200}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
	if eng.Now() != 250 {
		t.Fatalf("engine stopped at %d, want 250", eng.Now())
	}
}

func TestDaemonTickerAloneDoesNotRun(t *testing.T) {
	eng := NewEngine()
	fired := 0
	NewDaemonTicker(eng, 10, func() { fired++ })
	eng.Run() // only daemon work pending: returns immediately
	if fired != 0 {
		t.Fatalf("daemon ticker fired %d times with no live work", fired)
	}
}

func TestHaltWatcherStopsWithinOneInterval(t *testing.T) {
	eng := NewEngine()
	// A chain of non-daemon events that would run to t=10000 unless halted.
	var step func()
	step = func() {
		if eng.Now() < 10000 {
			eng.After(10, step)
		}
	}
	eng.After(10, step)

	cancelled := false
	NewHaltWatcher(eng, 100, func() bool { return cancelled })
	eng.At(555, func() { cancelled = true })
	eng.Run()
	if !eng.Halted() {
		t.Fatal("engine did not halt")
	}
	// The condition flips at 555; the next watcher tick is 600.
	if eng.Now() != 600 {
		t.Fatalf("halted at %v, want 600 (first tick after cancellation)", eng.Now())
	}
}

func TestHaltWatcherNeverExtendsRun(t *testing.T) {
	eng := NewEngine()
	NewHaltWatcher(eng, 100, func() bool { return false })
	eng.At(250, func() {})
	eng.Run()
	if eng.Halted() || eng.Now() != 250 {
		t.Fatalf("halted=%v now=%v, want clean drain at 250", eng.Halted(), eng.Now())
	}
}
