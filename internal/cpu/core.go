// Package cpu implements the trace-driven core model: a 4-wide core with a
// bounded in-flight-miss window (memory-level parallelism), the standard
// simplification for studies whose subject is the memory system. IPC
// responds to main-memory latency exactly the way the paper's figures
// require: more time spent with a full miss window means fewer
// instructions per cycle.
//
// The core's native clock is its own cycle domain: it accumulates an
// integer cycle count and converts to engine time through the exact
// rational sim.Clock, so a 3 GHz core (1000/3 ps period) runs at 3 GHz
// rather than drifting to the truncated 333 ps ≈ 3.003 GHz. Each
// conversion rounds once from the total cycle count, so the error never
// accumulates past a picosecond.
package cpu

import (
	"errors"
	"fmt"
	"io"
	"math/bits"

	"camps/internal/cache"
	"camps/internal/config"
	"camps/internal/obs"
	"camps/internal/sim"
	"camps/internal/stats"
	"camps/internal/trace"
)

// Memory is the interface the cores' cache-miss traffic goes to (the HMC).
type Memory interface {
	// ReadLine fetches one cache line; done fires when data is back.
	ReadLine(addr uint64, done func(at sim.Time))
	// WriteLine posts one cache-line writeback.
	WriteLine(addr uint64)
}

// yieldQuantum bounds how far a core's local clock may run ahead of the
// global event clock before it reschedules itself, which bounds the
// functional-order skew between cores sharing the L3.
const yieldQuantum = 2000 // CPU cycles

// Core executes one trace.
type Core struct {
	eng    *sim.Engine
	id     int
	reader trace.Reader
	hier   *cache.Hierarchy
	mem    Memory

	issueWidth uint64
	issueShift int // log2(issueWidth) when it is a power of two, else -1
	window     int
	clk        sim.Clock
	quantum    sim.Time
	budget     uint64 // instructions in the measured region
	onFinish   func(id int)

	cycles       int64    // local clock, in core cycles
	localTime    sim.Time // clk.Cycles(cycles), kept in sync
	outstanding  int
	blocked      bool
	finished     bool
	finishCycles int64
	instret      uint64

	// Hot-path callbacks bound once so per-record scheduling and per-miss
	// issue do not allocate a new closure each time. Writebacks and demand
	// reads ride the engine's AtArg path: the address travels in the event
	// node instead of a capturing closure.
	stepFn      func()
	readDoneFn  func(sim.Time)
	writeLineFn func(uint64)
	issueReadFn func(uint64)

	// Optional core-side stride prefetcher on the L2 miss stream (the
	// paper's §2.4 comparison point); nil when disabled.
	stride     *cache.StrideDetector
	prefIssued stats.Counter

	memReads  stats.Counter
	memWrites stats.Counter
	stallTime sim.Time // time spent with a full window
	err       error
}

// NewCore builds a core. budget is the measured instruction count; when
// every core in a system reaches its budget the driver halts the engine
// (cores keep executing past their budget to keep contention realistic).
func NewCore(eng *sim.Engine, cfg config.Config, id int, r trace.Reader,
	h *cache.Hierarchy, mem Memory, budget uint64, onFinish func(id int)) *Core {
	if budget == 0 {
		panic("cpu: zero instruction budget")
	}
	clk := cfg.CPUClock()
	c := &Core{
		eng:        eng,
		id:         id,
		reader:     r,
		hier:       h,
		mem:        mem,
		issueWidth: uint64(cfg.Processor.IssueWidth),
		window:     cfg.Processor.WindowSize,
		clk:        clk,
		quantum:    clk.Cycles(yieldQuantum),
		budget:     budget,
		onFinish:   onFinish,
	}
	c.issueShift = -1
	if w := c.issueWidth; w&(w-1) == 0 {
		c.issueShift = bits.TrailingZeros64(w)
	}
	c.stepFn = c.step
	c.readDoneFn = c.readDone
	c.writeLineFn = func(addr uint64) { c.mem.WriteLine(addr) }
	c.issueReadFn = func(addr uint64) { c.mem.ReadLine(addr, c.readDoneFn) }
	if d := cfg.Processor.L2PrefetchDegree; d > 0 {
		c.stride = cache.NewStrideDetector(16, d, cache.AddressLimit(cfg))
	}
	return c
}

// Instrument registers the core's counters with the observability
// registry under the cpu.* namespace. Registration is additive across
// cores: snapshots report processor-wide totals. Call before Start.
func (c *Core) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("cpu.instructions", func() uint64 { return c.instret })
	reg.CounterFunc("cpu.mem_reads", c.memReads.Value)
	reg.CounterFunc("cpu.mem_writes", c.memWrites.Value)
	reg.CounterFunc("cpu.stride_prefetches", c.prefIssued.Value)
	reg.GaugeFunc("cpu.outstanding_misses", func() float64 { return float64(c.outstanding) })
	reg.GaugeFunc("cpu.stall_time_ps", func() float64 { return float64(c.stallTime) })
}

// Start begins execution at the current simulation time.
func (c *Core) Start() {
	c.cycles = c.clk.ToCyclesCeil(c.eng.Now())
	c.localTime = c.clk.Cycles(c.cycles)
	c.step()
}

// advance moves the local clock forward n cycles.
func (c *Core) advance(n int64) {
	c.cycles += n
	c.localTime = c.clk.Cycles(c.cycles)
}

// step processes trace records until the core must yield: window full,
// local clock too far ahead, trace exhausted, or engine halted.
func (c *Core) step() {
	for {
		if c.eng.Halted() || c.err != nil {
			return
		}
		if c.outstanding >= c.window {
			c.blocked = true
			return
		}
		if c.localTime > c.eng.Now()+c.quantum {
			at := c.localTime - c.quantum
			c.eng.At(at, c.stepFn)
			return
		}
		rec, err := c.reader.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				c.err = fmt.Errorf("cpu: core %d trace: %w", c.id, err)
			}
			c.finish()
			return
		}
		// The gap's non-memory instructions and the access are charged
		// in one advance, so the cycle count is converted to time once
		// per record; the access does not read the core's clock.
		gap := uint64(rec.Gap)
		issue := c.issueCycles(gap)

		res := c.hier.Access(c.id, rec.Addr, rec.Write)
		memRead := res.Level == 4 && !rec.Write
		if memRead {
			// The cache-lookup latency of a miss overlaps with the memory
			// access itself (both ride in the out-of-order window), so
			// only charge the L1 probe serially.
			c.advance(issue + int64(c.hier.L1(c.id).HitLatency()))
		} else {
			c.advance(issue + int64(res.Latency))
		}
		issueAt := maxTime(c.localTime, c.eng.Now())
		for _, wb := range res.Writebacks {
			c.memWrites.Inc()
			c.eng.AtArg(issueAt, c.writeLineFn, wb)
		}
		if memRead {
			// Demand read miss: occupy a window slot until data returns.
			c.memReads.Inc()
			c.outstanding++
			c.eng.AtArg(issueAt, c.issueReadFn, rec.Addr)
		}
		if c.stride != nil && res.Level >= 3 && !rec.Write {
			// Train the core-side prefetcher on the L2 miss stream and
			// issue its predictions (no window slot: a separate engine).
			c.issueStridePrefetches(rec.Addr, issueAt)
		}
		// Write misses install dirty lines without a fill (write-validate);
		// their traffic reaches memory as eventual writebacks.
		c.retire(gap + 1)
	}
}

// issueCycles is the cycles that gap non-memory instructions take to
// retire at issueWidth per cycle, rounded up.
func (c *Core) issueCycles(gap uint64) int64 {
	n := gap + c.issueWidth - 1
	if c.issueShift >= 0 {
		return int64(n >> c.issueShift)
	}
	return int64(n / c.issueWidth)
}

// issueStridePrefetches feeds the detector one L2-miss address and sends
// its predictions to memory; returned data installs into L2/L3 with dirty
// victims written back.
func (c *Core) issueStridePrefetches(addr uint64, at sim.Time) {
	for _, pa := range c.stride.Observe(addr) {
		pa := pa
		if c.hier.L2(c.id).Contains(pa) || c.hier.L3().Contains(pa) {
			continue // already cached
		}
		c.prefIssued.Inc()
		c.eng.At(at, func() {
			c.mem.ReadLine(pa, func(sim.Time) {
				for _, wb := range c.hier.InstallPrefetched(c.id, pa) {
					c.mem.WriteLine(wb)
				}
			})
		})
	}
}

// readDone is called when an outstanding read's data arrives.
func (c *Core) readDone(at sim.Time) {
	c.outstanding--
	if c.blocked {
		c.blocked = false
		if at > c.localTime {
			// Stalled until the data instant; resume on the next core edge.
			c.stallTime += at - c.localTime
			c.cycles = c.clk.ToCyclesCeil(at)
			c.localTime = c.clk.Cycles(c.cycles)
		}
		c.step()
	}
}

// retire counts instructions and detects the budget boundary.
func (c *Core) retire(n uint64) {
	c.instret += n
	if !c.finished && c.instret >= c.budget {
		c.finished = true
		c.finishCycles = c.cycles
		if c.onFinish != nil {
			c.onFinish(c.id)
		}
	}
}

// finish handles trace exhaustion (only possible with finite readers).
func (c *Core) finish() {
	if !c.finished {
		c.finished = true
		c.finishCycles = c.cycles
		if c.onFinish != nil {
			c.onFinish(c.id)
		}
	}
}

// Err returns a trace-read error, if any occurred.
func (c *Core) Err() error { return c.err }

// Finished reports whether the measured region completed.
func (c *Core) Finished() bool { return c.finished }

// Instructions returns instructions retired so far (it keeps counting past
// the budget).
func (c *Core) Instructions() uint64 { return c.instret }

// IPC returns the measured-region instructions per cycle, computed from
// the core's exact cycle count (no time-domain round trip).
func (c *Core) IPC() float64 {
	if c.finishCycles == 0 {
		return 0
	}
	n := c.instret
	if n > c.budget {
		n = c.budget
	}
	return float64(n) / float64(c.finishCycles)
}

// MemReads returns demand read misses sent to memory.
func (c *Core) MemReads() uint64 { return c.memReads.Value() }

// MemWrites returns writebacks sent to memory.
func (c *Core) MemWrites() uint64 { return c.memWrites.Value() }

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
