package vault

import (
	"math/rand"
	"slices"
	"testing"

	"camps/internal/config"
	"camps/internal/dram"
	"camps/internal/prefetch"
	"camps/internal/sim"
)

// smallCfg shrinks refresh pressure out of the way for focused tests.
func smallCfg() config.Config {
	cfg := config.Default()
	cfg.HMC.Timing.TREFI = 1 << 20 // push refresh far out
	return cfg
}

func newVault(t *testing.T, cfg config.Config, scheme prefetch.Scheme) (*sim.Engine, *Controller) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	eng := sim.NewEngine()
	return eng, New(eng, cfg, scheme, 0)
}

// pendingWork reports whether the controller still has queued demand or
// row stores (fetch hints may be left queued: a drained run drops them).
func (c *Controller) pendingWork() bool {
	return len(c.readQ) > 0 || len(c.writeQ) > 0 || len(c.storeQ) > 0
}

// submitRead sends a read and returns a pointer that receives completion time.
func submitRead(c *Controller, bank int, row int64, line int) *sim.Time {
	done := new(sim.Time)
	*done = -1
	c.Submit(Request{Bank: bank, Row: row, Line: line, Done: func(at sim.Time) { *done = at }})
	return done
}

func TestReadMissLatency(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.CAMPS)
	done := submitRead(c, 0, 5, 0)
	eng.Run()
	tm := dram.NewTiming(cfg.HMC.Timing, cfg.DRAMClock())
	want := tm.RCD + tm.CL + tm.BL
	if *done != want {
		t.Fatalf("closed-bank read completed at %v, want tRCD+tCL+tBL = %v", *done, want)
	}
	if c.Stats().RowMisses.Value() != 1 {
		t.Fatalf("row misses = %d, want 1", c.Stats().RowMisses.Value())
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := smallCfg()
	// CAMPS: first access opens row and profiles it (no fetch at util 1).
	eng, c := newVault(t, cfg, prefetch.CAMPS)
	submitRead(c, 0, 5, 0)
	eng.Run()

	hitDone := submitRead(c, 0, 5, 1)
	start := eng.Now()
	eng.Run()
	hitLat := *hitDone - start

	// Now a conflicting row.
	confDone := submitRead(c, 0, 6, 0)
	start = eng.Now()
	eng.Run()
	confLat := *confDone - start

	if hitLat >= confLat {
		t.Fatalf("row hit latency %v not faster than conflict latency %v", hitLat, confLat)
	}
	s := c.Stats()
	if s.RowHits.Value() != 1 || s.RowConflicts.Value() != 1 || s.RowMisses.Value() != 1 {
		t.Fatalf("row state counts = hit %d miss %d conflict %d",
			s.RowHits.Value(), s.RowMisses.Value(), s.RowConflicts.Value())
	}
}

func TestBasePrefetchServesSecondAccessFromBuffer(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.Base)
	// First access: BASE fetches the whole row and precharges.
	submitRead(c, 0, 7, 0)
	eng.Run()
	if c.Stats().FetchesIssued.Value() != 1 {
		t.Fatalf("BASE issued %d fetches, want 1", c.Stats().FetchesIssued.Value())
	}
	// Second access to the same row: prefetch-buffer hit at pf latency.
	done := submitRead(c, 0, 7, 3)
	start := eng.Now()
	eng.Run()
	wantLat := cfg.CPUClock().Cycles(cfg.PFBuffer.HitLatency)
	if *done-start != wantLat {
		t.Fatalf("buffer hit latency = %v, want %v", *done-start, wantLat)
	}
	s := c.Stats()
	if s.BufferHits.Value() != 1 {
		t.Fatalf("buffer hits = %d, want 1", s.BufferHits.Value())
	}
	// BASE precharged after the copy: no open row left.
	if s.RowConflicts.Value() != 0 {
		t.Fatal("BASE should produce no row-buffer conflicts")
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.CAMPS)
	// Open row 5 in bank 0.
	submitRead(c, 0, 5, 0)
	eng.Run()
	// While the bank is busy serving a conflicting row-6 read, queue
	// another row-5 read; FR-FCFS should reorder it first... but the row-6
	// read occupies the bank immediately (it was idle). Instead queue both
	// while the bank is busy: issue a long job first.
	d6 := submitRead(c, 0, 6, 0) // starts immediately, conflict
	d5 := submitRead(c, 0, 5, 1) // queued behind; row 5 no longer open after 6 opens
	d6b := submitRead(c, 0, 6, 1)
	eng.Run()
	// After the first job, row 6 is open; FR-FCFS picks the row-6 hit
	// (d6b) before the older row-5 request (d5).
	if !(*d6b < *d5) {
		t.Fatalf("FR-FCFS did not prefer row hit: d6b=%v d5=%v d6=%v", *d6b, *d5, *d6)
	}
	if c.Stats().RowHits.Value() < 1 {
		t.Fatal("expected at least one row hit from reordering")
	}
}

func TestPostedWriteCompletesImmediatelyAndDrains(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.CAMPS)
	var done sim.Time = -1
	c.Submit(Request{Bank: 1, Row: 3, Line: 0, Write: true, Done: func(at sim.Time) { done = at }})
	if done != 0 {
		t.Fatalf("posted write completed at %v, want immediately (0)", done)
	}
	eng.Run()
	if c.Stats().WriteBursts.Value() != 1 {
		t.Fatalf("write bursts = %d, want 1 (write drained)", c.Stats().WriteBursts.Value())
	}
	if c.pendingWork() {
		t.Fatal("work left after drain")
	}
}

func TestWriteDrainMode(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.CAMPS)
	// Flood the write queue past the high watermark (24 of 32) for one bank.
	for i := 0; i < 30; i++ {
		c.Submit(Request{Bank: 0, Row: int64(i), Line: 0, Write: true})
	}
	if !c.draining {
		t.Fatal("drain mode not latched above high watermark")
	}
	eng.Run()
	if c.Stats().WriteBursts.Value() != 30 {
		t.Fatalf("drained %d writes, want 30", c.Stats().WriteBursts.Value())
	}
	if c.draining {
		t.Fatal("drain mode still latched after queue emptied")
	}
	if c.Stats().MaxWriteQueue < 24 {
		t.Fatalf("max write queue = %d, want >= 24", c.Stats().MaxWriteQueue)
	}
}

// TestDrainLatchReleasedByDrainingPass checks that the write-drain latch
// is released by the schedule pass that drains the queue to the low
// watermark, not by whichever pass happens to run next.
func TestDrainLatchReleasedByDrainingPass(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.CAMPS)
	for i := 0; i < 30; i++ {
		c.Submit(Request{Bank: 0, Row: int64(i), Line: 0, Write: true})
	}
	if !c.draining {
		t.Fatal("test setup: drain mode not latched")
	}
	for len(c.writeQ) > cfg.HMC.WriteQueue/4 && eng.Step() {
	}
	if c.draining {
		t.Fatalf("drain mode still latched with %d writes queued after the draining pass", len(c.writeQ))
	}
}

func TestServiceTimeBufferRecheck(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.Base)
	// Demand read to row 9 triggers a BASE fetch of the whole row. While
	// the row fetch occupies the bank (it starts after the demand read
	// completes, ~33ns, and runs for ~100ns) a second read to the same row
	// arrives; it misses the buffer on arrival but must be served from the
	// buffer at service time (counted as a buffer hit, no bank access).
	submitRead(c, 0, 9, 0)
	eng.RunUntil(50 * sim.Nanosecond)
	if c.Stats().FetchesIssued.Value() != 1 {
		t.Fatal("test setup: fetch not yet in flight at 50ns")
	}
	d2 := submitRead(c, 0, 9, 5)
	eng.Run()
	if *d2 < 0 {
		t.Fatal("second read never completed")
	}
	s := c.Stats()
	if s.BufferHits.Value() == 0 {
		t.Fatal("service-time buffer re-check never hit")
	}
	// Only the first request should have touched the bank.
	if got := s.bankAccesses(); got != 1 {
		t.Fatalf("bank accesses = %d, want 1", got)
	}
}

// hitRecorder wraps an engine with the buffer-hit hook and records every
// request the hook hears of.
type hitRecorder struct {
	prefetch.Engine
	hits []prefetch.Request
}

func (h *hitRecorder) OnBufferHit(req prefetch.Request) { h.hits = append(h.hits, req) }

// TestBufferHitHookSeesEveryBufferHit checks that the engine's buffer-hit
// hook hears of every buffer hit the vault counts, at each of the three
// places one happens: the service-time re-check of a queued read, the same
// re-check of a drained write, and a request's arrival.
func TestBufferHitHookSeesEveryBufferHit(t *testing.T) {
	if _, c := newVault(t, smallCfg(), prefetch.Hybrid); c.hitObs == nil {
		t.Fatal("a hybrid vault did not resolve the engine's buffer-hit hook")
	}
	if _, c := newVault(t, smallCfg(), prefetch.Base); c.hitObs != nil {
		t.Fatal("a BASE vault resolved a buffer-hit hook BASE does not have")
	}
	eng, c := newVault(t, smallCfg(), prefetch.Base)
	h := &hitRecorder{Engine: c.pf}
	c.pf, c.hitObs = h, h
	check := func(stage string, want ...prefetch.Request) {
		t.Helper()
		if got := c.Stats().BufferHits.Value(); got != uint64(len(h.hits)) {
			t.Fatalf("%s: %d buffer hits counted, hook heard of %d", stage, got, len(h.hits))
		}
		if !slices.Equal(h.hits, want) {
			t.Fatalf("%s: hook heard of %+v, want %+v", stage, h.hits, want)
		}
	}
	// BASE fetches row 9 after the first read; a read and a write to the
	// row arrive while the fetch holds the bank, miss the buffer, and are
	// served from it once the row lands.
	submitRead(c, 0, 9, 0)
	eng.RunUntil(50 * sim.Nanosecond)
	submitRead(c, 0, 9, 5)
	c.Submit(Request{Bank: 0, Row: 9, Line: 6, Write: true})
	check("arrival misses")
	eng.Run()
	read := prefetch.Request{Bank: 0, Row: 9, Line: 5}
	write := prefetch.Request{Bank: 0, Row: 9, Line: 6, Write: true}
	check("service-time re-checks", read, write)
	if s := c.Stats(); s.bankAccesses() != 1 || s.WriteBursts.Value() != 0 {
		t.Fatalf("the re-checked requests reached the bank: %d accesses, %d write bursts", s.bankAccesses(), s.WriteBursts.Value())
	}
	// The row is resident now: both kinds of request hit on arrival.
	submitRead(c, 0, 9, 7)
	c.Submit(Request{Bank: 0, Row: 9, Line: 8, Write: true})
	all := []prefetch.Request{read, write,
		{Bank: 0, Row: 9, Line: 7},
		{Bank: 0, Row: 9, Line: 8, Write: true}}
	check("arrival hits", all...)
	eng.Run()
	check("end", all...)
}

func TestCAMPSConflictProneRowGetsFetched(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.CAMPSMOD)
	// A ping-pong between rows 1 and 2 in bank 0: the second time row 1
	// reopens it is in the CT and gets fetched.
	for i := 0; i < 2; i++ {
		submitRead(c, 0, 1, i)
		eng.Run()
		submitRead(c, 0, 2, i)
		eng.Run()
	}
	if c.Stats().FetchesIssued.Value() == 0 {
		t.Fatal("conflict ping-pong never triggered a CAMPS fetch")
	}
	// Subsequent access to the fetched row is a buffer hit.
	pre := c.Stats().BufferHits.Value()
	submitRead(c, 0, 1, 9)
	eng.Run()
	if c.Stats().BufferHits.Value() != pre+1 {
		t.Fatal("fetched conflict-prone row not served from buffer")
	}
}

func TestCAMPSUtilizationFetch(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.CAMPS)
	// Four distinct lines from one open row reach the RUT threshold.
	for line := 0; line < 4; line++ {
		submitRead(c, 2, 11, line)
		eng.Run()
	}
	if c.Stats().FetchesIssued.Value() != 1 {
		t.Fatalf("fetches = %d, want 1 after utilization threshold", c.Stats().FetchesIssued.Value())
	}
	// CloseAfter: bank precharged, so next different-row access is a miss,
	// not a conflict.
	pre := c.Stats().RowConflicts.Value()
	submitRead(c, 2, 12, 0)
	eng.Run()
	if c.Stats().RowConflicts.Value() != pre {
		t.Fatal("bank not precharged after CAMPS fetch")
	}
}

func TestRefreshHappensWhileIdle(t *testing.T) {
	cfg := smallCfg()
	cfg.HMC.Timing.TREFI = 6240 // restore realistic refresh
	eng, c := newVault(t, cfg, prefetch.CAMPS)
	tm := dram.NewTiming(cfg.HMC.Timing, cfg.DRAMClock())
	eng.RunUntil(2 * tm.REFI)
	refreshes := c.Stats().Refreshes.Value()
	// Every bank refreshes roughly twice in two tREFI windows.
	banks := uint64(cfg.HMC.Banks())
	if refreshes < banks || refreshes > 3*banks {
		t.Fatalf("refreshes = %d over 2*tREFI, want within [%d,%d]", refreshes, banks, 3*banks)
	}
}

func TestDirtyBufferEvictionWritesBack(t *testing.T) {
	cfg := smallCfg()
	cfg.PFBuffer.SizeBytes = 2 << 10 // 2 entries: force evictions fast
	eng, c := newVault(t, cfg, prefetch.Base)
	// Touch row 0 (fetch), dirty it via a write hit, then fetch two more
	// rows to evict it.
	submitRead(c, 0, 0, 0)
	eng.Run()
	c.Submit(Request{Bank: 0, Row: 0, Line: 1, Write: true}) // buffer write hit -> dirty
	eng.Run()
	submitRead(c, 0, 1, 0)
	eng.Run()
	submitRead(c, 0, 2, 0)
	eng.Run()
	if c.Stats().RowWritebacks.Value() == 0 {
		t.Fatal("dirty row eviction did not write back")
	}
	if c.BufferStats().DirtyEvicts == 0 {
		t.Fatal("dirty eviction not counted in buffer stats")
	}
}

func TestFlushAccountsResidentRows(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.Base)
	submitRead(c, 0, 3, 0)
	eng.Run()
	// Row 3 resident and used (the triggering demand missed; a second
	// demand hits it).
	submitRead(c, 0, 3, 1)
	eng.Run()
	c.Flush()
	bs := c.BufferStats()
	if bs.Evictions == 0 {
		t.Fatal("flush did not evict resident rows")
	}
	if bs.RowAccuracy() != 1.0 {
		t.Fatalf("accuracy = %g, want 1.0 (the only prefetched row was used)", bs.RowAccuracy())
	}
}

func TestSubmitValidation(t *testing.T) {
	cfg := smallCfg()
	_, c := newVault(t, cfg, prefetch.CAMPS)
	for _, req := range []Request{
		{Bank: -1, Row: 0, Line: 0},
		{Bank: 99, Row: 0, Line: 0},
		{Bank: 0, Row: 0, Line: -1},
		{Bank: 0, Row: 0, Line: 16},
	} {
		req := req
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Submit(%+v) did not panic", req)
				}
			}()
			c.Submit(req)
		}()
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64, uint64) {
		cfg := smallCfg()
		eng := sim.NewEngine()
		c := New(eng, cfg, prefetch.CAMPSMOD, 0)
		var last sim.Time
		for i := 0; i < 200; i++ {
			bank := i % 4
			row := int64(i % 7)
			line := i % 16
			c.Submit(Request{Bank: bank, Row: row, Line: line,
				Write: i%5 == 0, Done: func(at sim.Time) { last = at }})
			eng.RunUntil(eng.Now() + sim.Time(1000*(i%3)))
		}
		eng.Run()
		return last, c.Stats().RowConflicts.Value(), c.Stats().FetchesIssued.Value()
	}
	a1, a2, a3 := run()
	b1, b2, b3 := run()
	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Fatalf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", a1, a2, a3, b1, b2, b3)
	}
}

func TestStatsMerge(t *testing.T) {
	var a, b Stats
	a.RowHits.Add(3)
	a.MaxReadQueue = 5
	b.RowHits.Add(4)
	b.RowConflicts.Add(2)
	b.MaxReadQueue = 9
	b.ServiceLatency.Observe(100)
	a.Merge(&b)
	if a.RowHits.Value() != 7 || a.RowConflicts.Value() != 2 {
		t.Fatalf("merge counts wrong: %+v", a)
	}
	if a.MaxReadQueue != 9 {
		t.Fatalf("merge max = %d, want 9", a.MaxReadQueue)
	}
	if a.ServiceLatency.Count() != 1 {
		t.Fatal("merge lost latency samples")
	}
}

func TestConflictRate(t *testing.T) {
	var s Stats
	if s.ConflictRate() != 0 {
		t.Fatal("empty conflict rate should be 0")
	}
	s.RowHits.Add(6)
	s.RowMisses.Add(2)
	s.RowConflicts.Add(2)
	if got := s.ConflictRate(); got != 0.2 {
		t.Fatalf("conflict rate = %g, want 0.2", got)
	}
}

func TestAllSchemesRunEndToEnd(t *testing.T) {
	for _, scheme := range prefetch.Schemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := smallCfg()
			eng, c := newVault(t, cfg, scheme)
			completed := 0
			for i := 0; i < 500; i++ {
				bank := (i * 7) % 16
				row := int64((i * 3) % 32)
				line := (i * 5) % 16
				c.Submit(Request{Bank: bank, Row: row, Line: line,
					Write: i%4 == 3, Done: func(sim.Time) { completed++ }})
				if i%10 == 0 {
					eng.RunUntil(eng.Now() + 50_000)
				}
			}
			eng.Run()
			if completed != 500 {
				t.Fatalf("%v: completed %d/500", scheme, completed)
			}
			c.CollectOps()
			s := c.Stats()
			if s.BankOps.Activates == 0 {
				t.Fatalf("%v: no DRAM activity recorded", scheme)
			}
			if c.pendingWork() {
				t.Fatalf("%v: pending work after drain", scheme)
			}
		})
	}
}

// TestCheckInvariantCoversSchedulerCache corrupts each piece of state the
// scheduler caches — the work mask, the daemon-wake mask and the earliest
// refresh deadline — and expects CheckInvariant to report it.
func TestCheckInvariantCoversSchedulerCache(t *testing.T) {
	eng, c := newVault(t, config.Default(), prefetch.CAMPSMOD)
	for i := 0; i < 40; i++ {
		c.Submit(Request{Bank: i % 5, Row: int64(i % 3), Line: i % 16, Write: i%4 == 0})
	}
	eng.RunUntil(eng.Now() + 20_000)
	if c.workMask == 0 {
		t.Fatal("no queued work left to check; submit more")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatalf("clean controller: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func() (restore func())
	}{
		{"work mask bit cleared", func() func() {
			m := c.workMask
			c.workMask &= c.workMask - 1
			return func() { c.workMask = m }
		}},
		{"work mask bit set", func() func() {
			m := c.workMask
			idle := ^m & (1<<len(c.banks) - 1)
			if idle == 0 {
				t.Fatal("every bank has queued work; none to mark falsely")
			}
			c.workMask |= idle & -idle
			return func() { c.workMask = m }
		}},
		{"daemon-only wake behind queued work", func() func() {
			m := c.daemonWake
			for b := range c.banks {
				if c.readCount[b]|c.writeCount[b]|c.storeCount[b] != 0 && c.busy[b] > eng.Now() {
					c.daemonWake |= 1 << uint(b)
					return func() { c.daemonWake = m }
				}
			}
			t.Fatal("no busy bank with queued demand; submit more")
			return nil
		}},
		{"min refresh stale", func() func() {
			m := c.minRefresh
			c.minRefresh = m + 1
			return func() { c.minRefresh = m }
		}},
	} {
		restore := tc.corrupt()
		if err := c.CheckInvariant(); err == nil {
			t.Errorf("%s: CheckInvariant passed", tc.name)
		}
		restore()
	}
	if err := c.CheckInvariant(); err != nil {
		t.Fatalf("restored controller: %v", err)
	}
}

// TestDemandArrivingMidRefreshCompletes submits a read, from a scheduled
// event, to a bank that is refreshing while nothing but daemon events is
// pending. The refresh's daemon release wake must be upgraded so that Run
// keeps going until the read is served.
func TestDemandArrivingMidRefreshCompletes(t *testing.T) {
	cfg := config.Default()
	eng, c := newVault(t, cfg, prefetch.CAMPS)
	tm := dram.NewTiming(cfg.HMC.Timing, cfg.DRAMClock())
	// Bank 0's first refresh is due at tREFI/16 (the stagger in New).
	at := tm.REFI/sim.Time(cfg.HMC.Banks()) + tm.RFC/2
	done := new(sim.Time)
	*done = -1
	eng.At(at, func() {
		if c.busy[0] <= at || c.daemonWake&1 == 0 {
			t.Errorf("test setup: bank 0 not refreshing behind a daemon wake at %v (busy until %v)", at, c.busy[0])
		}
		done = submitRead(c, 0, 5, 0)
	})
	eng.Run()
	if *done < 0 {
		t.Fatal("read queued behind a refresh never completed")
	}
	if *done <= at {
		t.Fatalf("read completed at %v, before the refresh ended", *done)
	}
}

// fetchOnce is a stub engine that answers the first demand it sees with
// one queued fetch.
type fetchOnce struct {
	f    prefetch.Fetch
	sent bool
}

func (e *fetchOnce) OnDemandServed(prefetch.Request, dram.RowState, int64) []prefetch.Fetch {
	if e.sent {
		return nil
	}
	e.sent = true
	return []prefetch.Fetch{e.f}
}

// TestPassedOverFetchStartsAtOnce checks that a fetch a job queues for an
// idle bank the schedule walk has already passed starts in the same pass,
// not at the next bank release.
func TestPassedOverFetchStartsAtOnce(t *testing.T) {
	eng, c := newVault(t, smallCfg(), prefetch.CAMPS)
	c.pf = &fetchOnce{f: prefetch.Fetch{Bank: 2, Row: 9}}
	submitRead(c, 5, 1, 0)
	if eng.Now() != 0 || c.busy[5] <= 0 {
		t.Fatalf("test setup: demand on bank 5 did not start at 0 (now %v, busy until %v)", eng.Now(), c.busy[5])
	}
	if got := c.Stats().FetchesIssued.Value(); got != 1 {
		t.Fatalf("fetches issued at the demand's start = %d, want 1", got)
	}
	if c.busy[2] <= 0 || c.banks[2].OpenRow() != 9 {
		t.Fatalf("bank 2 idle after its fetch was queued (busy until %v, open row %d)", c.busy[2], c.banks[2].OpenRow())
	}
}

// BenchmarkVaultSchedule measures the scheduler of one saturated 16-bank
// vault under CAMPS-MOD. Each op submits one demand request (a quarter of
// them writes, over all banks and 64 rows per bank) and then fires events
// until no more than 64 demand requests are queued, so every wake finds
// work on most banks.
func BenchmarkVaultSchedule(b *testing.B) {
	cfg := config.Default()
	eng := sim.NewEngine()
	c := New(eng, cfg, prefetch.CAMPSMOD, 0)
	rng := rand.New(rand.NewSource(1))
	reqs := make([]Request, 1<<12)
	for i := range reqs {
		reqs[i] = Request{
			Bank:  rng.Intn(cfg.HMC.Banks()),
			Row:   rng.Int63n(64),
			Line:  rng.Intn(c.lines),
			Write: rng.Intn(4) == 0,
		}
	}
	const depth = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(reqs[i&(len(reqs)-1)])
		for len(c.readQ)+len(c.writeQ) > depth && eng.Step() {
		}
	}
}
