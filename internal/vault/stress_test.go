package vault

import (
	"testing"

	"camps/internal/config"
	"camps/internal/prefetch"
	"camps/internal/sim"
)

// TestSingleBankHammer drives every request at one bank — the worst case
// for queueing and FR-FCFS — and checks nothing deadlocks or starves.
func TestSingleBankHammer(t *testing.T) {
	for _, scheme := range prefetch.Schemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := smallCfg()
			eng, c := newVault(t, cfg, scheme)
			completed := 0
			const n = 800
			for i := 0; i < n; i++ {
				row := int64(i % 3) // three-row ping-pong in one bank
				line := i % 16
				c.Submit(Request{Bank: 5, Row: row, Line: line,
					Write: i%7 == 6, Done: func(sim.Time) { completed++ }})
				if i%16 == 0 {
					eng.RunUntil(eng.Now() + 100_000)
				}
			}
			eng.Run()
			if completed != n {
				t.Fatalf("completed %d/%d under single-bank hammer", completed, n)
			}
			if c.pendingWork() {
				t.Fatal("stuck work after hammer")
			}
		})
	}
}

// TestWriteFlood saturates the write queue far past the drain watermark.
func TestWriteFlood(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.CAMPSMOD)
	const n = 500
	for i := 0; i < n; i++ {
		c.Submit(Request{Bank: i % 16, Row: int64(i % 11), Line: i % 16, Write: true})
	}
	eng.Run()
	if got := c.Stats().WriteBursts.Value() + c.Stats().BufferHits.Value(); got != n {
		t.Fatalf("flood drained %d writes (bursts+buffer absorbs), want %d", got, n)
	}
	if c.Stats().MaxWriteQueue < cfg.HMC.WriteQueue/2 {
		t.Fatalf("flood never pressured the queue: max %d", c.Stats().MaxWriteQueue)
	}
}

// TestRefreshStorm shrinks tREFI so refresh dominates; demand must still
// complete, just slowly.
func TestRefreshStorm(t *testing.T) {
	cfg := config.Default()
	cfg.HMC.Timing.TREFI = 300 // pathological: refresh ~2/3 of the time
	cfg.HMC.Timing.TRFC = 200
	eng, c := newVault(t, cfg, prefetch.CAMPS)
	completed := 0
	for i := 0; i < 100; i++ {
		c.Submit(Request{Bank: i % 16, Row: int64(i), Line: 0,
			Done: func(sim.Time) { completed++ }})
	}
	eng.Run()
	if completed != 100 {
		t.Fatalf("refresh storm starved demand: %d/100", completed)
	}
	if c.Stats().Refreshes.Value() == 0 {
		t.Fatal("no refreshes under storm config")
	}
}

// TestFetchQueueOverflowDropsOldest forces more fetch directives than the
// queue admits; the controller must drop (and count) rather than grow.
func TestFetchQueueOverflowDropsOldest(t *testing.T) {
	cfg := smallCfg()
	// MMD with a huge degree floods the fetch queue with next-row fetches.
	cfg.MMD.MaxDegree = 64
	cfg.MMD.TouchThreshold = 1
	eng, c := newVault(t, cfg, prefetch.MMD)
	// Hold the banks busy with demand so fetches pile up.
	for i := 0; i < 400; i++ {
		c.Submit(Request{Bank: i % 2, Row: int64(i % 50), Line: i % 16})
	}
	// Drive MMD's degree up by reporting useful prefetches.
	eng.Run()
	s := c.Stats()
	if s.MaxFetchQueue > c.maxFetchQ {
		t.Fatalf("fetch queue grew past its bound: %d > %d", s.MaxFetchQueue, c.maxFetchQ)
	}
	if s.FetchesDropped.Value() == 0 && s.MaxFetchQueue < c.maxFetchQ {
		t.Skip("load pattern never filled the fetch queue on this configuration")
	}
}

// TestTinyBufferChurn runs with a 1-entry prefetch buffer: constant
// eviction, every insert displacing the previous row.
func TestTinyBufferChurn(t *testing.T) {
	cfg := smallCfg()
	cfg.PFBuffer.SizeBytes = 1 << 10 // one row
	eng, c := newVault(t, cfg, prefetch.Base)
	completed := 0
	for i := 0; i < 300; i++ {
		c.Submit(Request{Bank: i % 16, Row: int64(i), Line: 0,
			Done: func(sim.Time) { completed++ }})
		if i%8 == 0 {
			eng.RunUntil(eng.Now() + 100_000)
		}
	}
	eng.Run()
	if completed != 300 {
		t.Fatalf("tiny buffer stalled requests: %d/300", completed)
	}
	bs := c.BufferStats()
	if bs.Evictions < bs.Inserts-1 {
		t.Fatalf("1-entry buffer: %d inserts but only %d evictions", bs.Inserts, bs.Evictions)
	}
}

// TestEvictionWritebackPolicy checks both writeback modes: the paper's
// write-everything-back default and the dirty-only variant.
func TestEvictionWritebackPolicy(t *testing.T) {
	run := func(dirtyOnly bool) uint64 {
		cfg := smallCfg()
		cfg.PFBuffer.SizeBytes = 2 << 10
		cfg.PFBuffer.WritebackDirtyOnly = dirtyOnly
		eng, c := newVault(t, cfg, prefetch.Base)
		// Fetch several rows via reads (clean), cycling the 2-entry buffer.
		for i := 0; i < 8; i++ {
			submitRead(c, 0, int64(i), 0)
			eng.Run()
		}
		c.Flush()
		return c.Stats().RowWritebacks.Value()
	}
	all := run(false)
	dirty := run(true)
	if all == 0 {
		t.Fatal("write-everything-back mode produced no row writebacks")
	}
	if dirty != 0 {
		t.Fatalf("dirty-only mode wrote back %d clean rows", dirty)
	}
}

// TestManyRowsManyBanksThroughput is a coarse throughput sanity check:
// spread load must finish much faster than single-bank load.
func TestManyRowsManyBanksThroughput(t *testing.T) {
	run := func(banks int) sim.Time {
		cfg := smallCfg()
		eng, c := newVault(t, cfg, prefetch.CAMPS)
		for i := 0; i < 200; i++ {
			c.Submit(Request{Bank: i % banks, Row: int64(i), Line: 0})
		}
		eng.Run()
		return eng.Now()
	}
	spread := run(16)
	serial := run(1)
	if spread*2 >= serial {
		t.Fatalf("bank-level parallelism missing: 16 banks %v vs 1 bank %v", spread, serial)
	}
}

// TestClosedPagePolicyEliminatesHitsAndConflicts: under closed page every
// demand access finds the bank precharged.
func TestClosedPagePolicy(t *testing.T) {
	cfg := smallCfg()
	cfg.HMC.PagePolicy = config.ClosedPage
	eng, c := newVault(t, cfg, prefetch.None)
	for i := 0; i < 200; i++ {
		submitRead(c, i%4, int64(i%5), i%16)
		eng.Run()
	}
	s := c.Stats()
	if s.RowHits.Value() != 0 || s.RowConflicts.Value() != 0 {
		t.Fatalf("closed page produced %d hits / %d conflicts",
			s.RowHits.Value(), s.RowConflicts.Value())
	}
	if s.RowMisses.Value() != 200 {
		t.Fatalf("closed page misses = %d, want 200", s.RowMisses.Value())
	}
}

// TestFCFSDoesNotReorder: under FCFS a younger row-hit request must not
// bypass an older request to a different row.
func TestFCFSDoesNotReorder(t *testing.T) {
	cfg := smallCfg()
	cfg.HMC.Scheduler = config.FCFS
	eng, c := newVault(t, cfg, prefetch.None)
	// Open row 5.
	submitRead(c, 0, 5, 0)
	eng.Run()
	// Occupy the bank, then queue old(row 6) before young(row 5 hit).
	d6 := submitRead(c, 0, 6, 0)
	dOld := submitRead(c, 0, 7, 0)
	dYoung := submitRead(c, 0, 6, 1) // would be a row hit under FR-FCFS
	eng.Run()
	if !(*d6 < *dOld && *dOld < *dYoung) {
		t.Fatalf("FCFS reordered: d6=%v dOld=%v dYoung=%v", *d6, *dOld, *dYoung)
	}
}

// TestNoPrefetchSchemeNeverFetches.
func TestNoPrefetchSchemeNeverFetches(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.None)
	for i := 0; i < 300; i++ {
		c.Submit(Request{Bank: i % 16, Row: int64(i % 9), Line: i % 16, Write: i%5 == 4})
	}
	eng.Run()
	if c.Stats().FetchesIssued.Value() != 0 {
		t.Fatal("NONE scheme issued fetches")
	}
	if c.BufferStats().Inserts != 0 {
		t.Fatal("NONE scheme inserted into the buffer")
	}
}

// TestFAWLimitsActivationBursts: five immediate activations across
// different banks must spread over at least one tFAW window.
func TestFAWLimitsActivationBursts(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.None)
	done := make([]*sim.Time, 5)
	for i := 0; i < 5; i++ {
		done[i] = submitRead(c, i, int64(i), 0) // five banks, all need ACT
	}
	eng.Run()
	tm := c.timing
	// The fifth ACT cannot issue before tFAW after the first; its data
	// completes at least tFAW + tRCD + tCL + tBL after time zero.
	minFifth := tm.FAW + tm.RCD + tm.CL + tm.BL
	latest := sim.Time(0)
	for _, d := range done {
		if *d > latest {
			latest = *d
		}
	}
	if latest < minFifth {
		t.Fatalf("five parallel activations finished at %v, violating tFAW (min %v)",
			latest, minFifth)
	}
}

// TestTSVBandwidthSerializesRowTransfers: with a modeled (narrow) TSV data
// path, back-to-back fetches on different banks must serialize.
func TestTSVBandwidthSerializes(t *testing.T) {
	run := func(gbps int64) sim.Time {
		cfg := smallCfg()
		cfg.HMC.TSVGBps = gbps
		eng, c := newVault(t, cfg, prefetch.Base)
		// BASE fetches the whole row on every access: four fetches on four
		// banks, concurrent unless the TSV path is the bottleneck.
		for b := 0; b < 4; b++ {
			submitRead(c, b, 1, 0)
		}
		eng.Run()
		return eng.Now()
	}
	unlimited := run(0)
	narrow := run(2) // 2 GB/s: one 1KB row takes 500ns
	if narrow <= unlimited {
		t.Fatalf("narrow TSV (%v) not slower than unlimited (%v)", narrow, unlimited)
	}
	// Four 1KB transfers at 2 GB/s serialize to >= 2us total.
	if narrow < 2*sim.Microsecond {
		t.Fatalf("narrow TSV finished at %v, want >= 2us of serialized transfers", narrow)
	}
}
