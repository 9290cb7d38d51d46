package cpu

import (
	"testing"

	"camps/internal/cache"
	"camps/internal/config"
	"camps/internal/sim"
	"camps/internal/trace"
)

// fakeMem completes reads after a fixed latency.
type fakeMem struct {
	eng     *sim.Engine
	latency sim.Time
	reads   int
	writes  int
}

func (m *fakeMem) ReadLine(_ uint64, done func(at sim.Time)) {
	m.reads++
	at := m.eng.Now() + m.latency
	m.eng.At(at, func() { done(at) })
}

func (m *fakeMem) WriteLine(uint64) { m.writes++ }

func testSetup(latency sim.Time, window int) (*sim.Engine, config.Config, *cache.Hierarchy, *fakeMem) {
	cfg := config.Default()
	cfg.Processor.WindowSize = window
	eng := sim.NewEngine()
	return eng, cfg, cache.NewHierarchy(cfg), &fakeMem{eng: eng, latency: latency}
}

// hitTrace repeats accesses to one line: everything after the first is an
// L1 hit.
func hitTrace(n int) trace.Reader {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Gap: 4, Addr: 64}
	}
	return trace.NewSliceReader(recs)
}

// missTrace touches a fresh line every access: every access misses to
// memory.
func missTrace(n int) trace.Reader {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Gap: 4, Addr: uint64(i+1) * 64}
	}
	return trace.NewSliceReader(recs)
}

func runCore(t *testing.T, eng *sim.Engine, c *Core) {
	t.Helper()
	c.Start()
	eng.Run()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if !c.Finished() {
		t.Fatal("core never finished")
	}
}

func TestCacheHitIPCNearBound(t *testing.T) {
	eng, cfg, h, mem := testSetup(100*sim.Nanosecond, 8)
	done := false
	c := NewCore(eng, cfg, 0, hitTrace(10000), h, mem, 40000, func(int) { done = true })
	runCore(t, eng, c)
	if !done {
		t.Fatal("onFinish not called")
	}
	// Each record: 4 gap instructions (1 cycle at width 4) + 1 memory op
	// with a 2-cycle L1 hit -> 5 instructions / 3 cycles ~ 1.67 IPC.
	ipc := c.IPC()
	if ipc < 1.2 || ipc > 2.0 {
		t.Fatalf("cache-resident IPC = %g, want ~1.67", ipc)
	}
	if mem.reads > 1 {
		t.Fatalf("cache-resident trace issued %d memory reads", mem.reads)
	}
}

func TestMemoryLatencyLowersIPC(t *testing.T) {
	run := func(lat sim.Time) float64 {
		eng, cfg, h, mem := testSetup(lat, 8)
		c := NewCore(eng, cfg, 0, missTrace(3000), h, mem, 15000, nil)
		runCore(t, eng, c)
		return c.IPC()
	}
	fast := run(50 * sim.Nanosecond)
	slow := run(500 * sim.Nanosecond)
	if fast <= slow {
		t.Fatalf("IPC insensitive to memory latency: fast %g vs slow %g", fast, slow)
	}
	if slow <= 0 {
		t.Fatalf("slow IPC = %g, want positive", slow)
	}
}

func TestWiderWindowRaisesIPCUnderMisses(t *testing.T) {
	run := func(window int) float64 {
		eng, cfg, h, mem := testSetup(200*sim.Nanosecond, window)
		c := NewCore(eng, cfg, 0, missTrace(3000), h, mem, 15000, nil)
		runCore(t, eng, c)
		return c.IPC()
	}
	narrow := run(1)
	wide := run(8)
	if wide <= narrow*1.5 {
		t.Fatalf("MLP window has no effect: window1 %g vs window8 %g", narrow, wide)
	}
}

func TestStallTimeAccountedWhenWindowFull(t *testing.T) {
	eng, cfg, h, mem := testSetup(1*sim.Microsecond, 1)
	c := NewCore(eng, cfg, 0, missTrace(100), h, mem, 500, nil)
	runCore(t, eng, c)
	if c.stallTime == 0 {
		t.Fatal("window-1 core with slow memory never stalled")
	}
}

func TestInstructionAccounting(t *testing.T) {
	eng, cfg, h, mem := testSetup(50*sim.Nanosecond, 8)
	// 100 records x (4 gap + 1 mem) = 500 instructions.
	c := NewCore(eng, cfg, 0, hitTrace(100), h, mem, 500, nil)
	runCore(t, eng, c)
	if c.Instructions() != 500 {
		t.Fatalf("instructions = %d, want 500", c.Instructions())
	}
}

func TestFinishOnTraceEOFBeforeBudget(t *testing.T) {
	eng, cfg, h, mem := testSetup(50*sim.Nanosecond, 8)
	finished := false
	c := NewCore(eng, cfg, 0, hitTrace(10), h, mem, 1<<40, func(int) { finished = true })
	c.Start()
	eng.Run()
	if !finished || !c.Finished() {
		t.Fatal("EOF did not finish the core")
	}
}

func TestWritebacksReachMemory(t *testing.T) {
	cfg := config.Default()
	// Tiny caches force dirty evictions quickly.
	cfg.L1 = config.CacheLevel{SizeBytes: 128, Ways: 1, LineBytes: 64, HitLatency: 2, MSHRs: 4}
	cfg.L2 = config.CacheLevel{SizeBytes: 256, Ways: 1, LineBytes: 64, HitLatency: 6, MSHRs: 4}
	cfg.L3 = config.CacheLevel{SizeBytes: 512, Ways: 1, LineBytes: 64, HitLatency: 20, MSHRs: 4, Shared: true}
	eng := sim.NewEngine()
	h := cache.NewHierarchy(cfg)
	mem := &fakeMem{eng: eng, latency: 10 * sim.Nanosecond}
	recs := make([]trace.Record, 500)
	for i := range recs {
		recs[i] = trace.Record{Gap: 2, Addr: uint64(i) * 64, Write: true}
	}
	c := NewCore(eng, cfg, 0, trace.NewSliceReader(recs), h, mem, 1000, nil)
	runCore(t, eng, c)
	if mem.writes == 0 {
		t.Fatal("dirty evictions never reached memory")
	}
	if c.MemWrites() != uint64(mem.writes) {
		t.Fatalf("core counted %d writes, memory saw %d", c.MemWrites(), mem.writes)
	}
}

func TestZeroBudgetPanics(t *testing.T) {
	eng, cfg, h, mem := testSetup(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero budget did not panic")
		}
	}()
	NewCore(eng, cfg, 0, hitTrace(1), h, mem, 0, nil)
}

func TestCoreDeterminism(t *testing.T) {
	run := func() (float64, uint64) {
		cfg := config.Default()
		eng := sim.NewEngine()
		h := cache.NewHierarchy(cfg)
		mem := &fakeMem{eng: eng, latency: 80 * sim.Nanosecond}
		gen, err := trace.NewGenerator(trace.Profile{
			Name: "d", FootprintBytes: 8 << 20, GapMean: 3, ReadFrac: 0.7,
			Streams: 2, StreamProb: 0.6, StrideBytes: 64,
			ConflictProb: 0.1, ConflictStreams: 2, ConflictStride: 512 << 10, LineBytes: 64,
		}, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		// The generator is infinite; halt the engine once the measured
		// region completes (the system driver's job in full simulations).
		var c *Core
		c = NewCore(eng, cfg, 0, gen, h, mem, 50000, func(int) { eng.Halt() })
		c.Start()
		eng.Run()
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		if !c.Finished() {
			t.Fatal("core never finished")
		}
		return c.IPC(), c.MemReads()
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Fatalf("nondeterministic core: (%g,%d) vs (%g,%d)", a1, a2, b1, b2)
	}
}

// Gaps round up to whole issue cycles, through the shift at power-of-two
// widths and the division at the others.
func TestIssueCyclesRoundUp(t *testing.T) {
	for w := 1; w <= 9; w++ {
		eng, cfg, h, mem := testSetup(100*sim.Nanosecond, 8)
		cfg.Processor.IssueWidth = w
		c := NewCore(eng, cfg, 0, hitTrace(1), h, mem, 1, nil)
		for gap := uint64(0); gap <= 100; gap++ {
			if got, want := c.issueCycles(gap), int64((gap+uint64(w)-1)/uint64(w)); got != want {
				t.Fatalf("width %d, gap %d: %d issue cycles, want %d", w, gap, got, want)
			}
		}
	}
}
