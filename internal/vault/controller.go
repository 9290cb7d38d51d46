// Package vault implements the HMC vault controller: per-vault read/write
// queues, FR-FCFS command scheduling over 16 banks with an open-page
// policy, refresh, and — the paper's subject — the memory-side prefetch
// engine and prefetch buffer that live in the vault's logic base.
//
// The controller treats each demand access or prefetch as an atomic job on
// its target bank (the bank enforces command-level timing legality); banks
// run concurrently within a vault, which is where HMC's bank-level
// parallelism comes from. The shared TSV data path is unmodeled by default,
// matching the paper's "huge internal bandwidth" premise; setting
// HMC.TSVGBps bounds it, for the ablation that tests that premise.
package vault

import (
	"fmt"

	"camps/internal/config"
	"camps/internal/dram"
	"camps/internal/fault"
	"camps/internal/obs"
	"camps/internal/pfbuffer"
	"camps/internal/prefetch"
	"camps/internal/sim"
)

// Request is one demand access delivered to a vault.
type Request struct {
	Bank  int
	Row   int64
	Line  int
	Write bool
	// Done is invoked exactly once with the time the request's data is
	// ready at the vault (writes complete on acceptance). May be nil.
	Done func(at sim.Time)
	// Span is the request's attribution span (zero when attribution is
	// off or for writes). The controller charges queue, refresh-stall,
	// blackout, bank-conflict and service segments to it; the cube
	// retires it when the response reaches the processor side.
	Span obs.SpanRef
}

type pending struct {
	req     Request
	arrived sim.Time
}

// Controller is one vault's controller.
type Controller struct {
	eng    *sim.Engine
	cfg    config.Config
	id     int
	scheme prefetch.Scheme
	banks  []*dram.Bank
	busy   []sim.Time // per-bank: time the current job releases the bank
	buffer *pfbuffer.Buffer
	pf     prefetch.Engine

	// Epoch feedback for engines implementing prefetch.EpochObserver (nil
	// otherwise; every field below then stays untouched). The controller
	// counts demand requests and classifies buffer evictions itself —
	// independent of the attribution ledger, which is optional — and hands
	// the engine a fresh EpochStats every epochPeriod demands, immediately
	// before the triggering request's OnDemandServed.
	epochObs    prefetch.EpochObserver
	epochPeriod int
	epochReq    int
	epochAcc    prefetch.EpochStats

	// Request queues hold value-type nodes: enqueue/dequeue move small
	// structs inside preallocated backing arrays instead of allocating a
	// node per request. fetchQ starts at its hard bound (maxFetchQ); the
	// unbounded demand and store queues grow to their high-water marks.
	readQ  []pending
	writeQ []pending
	fetchQ []prefetch.Fetch
	storeQ []pfbuffer.RowID

	// Hot-path callbacks and scratch space, allocated once per controller.
	scheduleFn   func()
	retryFn      func()
	fetchScratch []prefetch.Fetch

	// In-flight row fills: landFillFn fires through AtArg with an index
	// into fills, and landed records are chained into a free list from
	// fillFree (-1 when empty), so a fetch schedules its buffer insert
	// without allocating a closure.
	landFillFn func(uint64)
	fills      []fill
	fillFree   int

	// Per-bank queued-work counts, maintained on every enqueue/dequeue.
	// schedule() runs after every bank event; the counts let startJob skip
	// the O(queue-length) scans for the (common) banks with nothing queued.
	readCount  []int
	writeCount []int
	storeCount []int
	fetchCount []int

	timing        dram.Timing
	nextRefresh   []sim.Time
	refreshWakeAt sim.Time // time of the vault's single armed refresh wake
	draining      bool     // write-drain mode latch

	pfHitLat  sim.Time
	lines     int
	maxFetchQ int

	retryArmed bool
	retryAt    sim.Time

	// Activation-rate limits shared by the vault's banks: tRRD between
	// consecutive ACTs and tFAW over any four (power-delivery limits).
	lastAct sim.Time
	actHist [4]sim.Time
	actIdx  int

	// Shared TSV data path for whole-row transfers; free when tsvFree has
	// passed. tsvRowTime == 0 means the path is unmodeled (the paper's
	// huge-internal-bandwidth premise).
	tsvFree    sim.Time
	tsvRowTime sim.Time

	stats Stats

	// Observability (nil unless Instrument was called): tr receives
	// structured events, obsLat mirrors ServiceLatency into the registry's
	// shared histogram. Emit on a nil tracer is a no-op, so the hot paths
	// carry no conditionals.
	tr     *obs.Tracer
	obsLat *obs.Histogram

	// Fault injection (nil unless SetFaults was called with an injector):
	// prefetch-buffer fill poisoning and per-bank blackout windows. All
	// site methods are nil-safe.
	faults *fault.VaultSite

	// Attribution (nil unless AttachAttribution was called): spans
	// receive per-cause latency segments, ledger the final classification
	// of every prefetch. The last refresh / blackout window per bank lets
	// queue time that overlapped them be charged to the right cause.
	spans       *obs.SpanSet
	ledger      *obs.PrefetchLedger
	lastRefNear []window // most recent refresh window per bank
	lastBlkNear []window // most recent blackout window per bank
}

// fill is one in-flight row fetch: the row and the trigger lines that
// seed its prefetch-buffer entry when it lands. next links free records.
type fill struct {
	id      pfbuffer.RowID
	touched uint64
	next    int
}

// window is one [start, end) interval on a bank's timeline.
type window struct{ start, end sim.Time }

// New returns a vault controller for vault id using the given prefetch
// scheme. All controllers of a cube share one simulation engine.
func New(eng *sim.Engine, cfg config.Config, scheme prefetch.Scheme, id int) *Controller {
	timing := dram.NewTiming(cfg.HMC.Timing, cfg.DRAMClock())
	nbanks := cfg.HMC.Banks()
	c := &Controller{
		eng:         eng,
		cfg:         cfg,
		id:          id,
		scheme:      scheme,
		banks:       make([]*dram.Bank, nbanks),
		busy:        make([]sim.Time, nbanks),
		buffer:      pfbuffer.New(cfg.PFBuffer.Entries(), cfg.LinesPerRow(), prefetch.Describe(scheme).Policy),
		pfHitLat:    cfg.CPUClock().Cycles(cfg.PFBuffer.HitLatency),
		lines:       cfg.LinesPerRow(),
		maxFetchQ:   4 * nbanks,
		timing:      timing,
		nextRefresh: make([]sim.Time, nbanks),
		readCount:   make([]int, nbanks),
		writeCount:  make([]int, nbanks),
		storeCount:  make([]int, nbanks),
		fetchCount:  make([]int, nbanks),
		fetchQ:      make([]prefetch.Fetch, 0, 4*nbanks),
	}
	c.scheduleFn = c.schedule
	c.landFillFn = c.landFill
	c.fillFree = -1
	c.retryFn = func() {
		c.retryArmed = false
		c.schedule()
	}
	if cfg.HMC.TSVGBps > 0 {
		c.tsvRowTime = sim.Time(int64(cfg.HMC.RowBytes) * 1_000_000_000_000 / (cfg.HMC.TSVGBps * 1_000_000_000))
	}
	// Activation-history sentinels in the distant past so tRRD/tFAW never
	// constrain the first activations.
	past := -(timing.FAW + timing.RRD + 1)
	c.lastAct = past
	for i := range c.actHist {
		c.actHist[i] = past
	}
	for i := range c.banks {
		c.banks[i] = dram.NewBank(timing)
		// Stagger per-bank refresh across the tREFI window.
		c.nextRefresh[i] = timing.REFI * sim.Time(i+1) / sim.Time(nbanks)
	}
	// One daemon wake per vault covers the earliest refresh deadline
	// (daemon: refresh alone must not keep the simulation running);
	// schedule() re-arms it as deadlines advance. Bank 0 holds the minimum
	// of the staggered initial deadlines.
	c.refreshWakeAt = c.nextRefresh[0]
	c.eng.AtDaemon(c.refreshWakeAt, c.scheduleFn)
	c.pf = prefetch.New(scheme, cfg, prefetch.Context{
		Banks:       nbanks,
		LinesPerRow: c.lines,
		RowsPerBank: int64(cfg.HMC.RowsPerBank),
		Queue:       (*queueView)(c),
	})
	if eo, ok := c.pf.(prefetch.EpochObserver); ok {
		c.epochObs = eo
		c.epochPeriod = eo.EpochRequests()
	}
	return c
}

// queueView adapts the controller's read queue to prefetch.QueueView.
type queueView Controller

// PendingReadsForRow counts queued demand reads for (bank,row).
func (q *queueView) PendingReadsForRow(bank int, row int64) int {
	n := 0
	for i := range q.readQ {
		if q.readQ[i].req.Bank == bank && q.readQ[i].req.Row == row {
			n++
		}
	}
	return n
}

// Instrument connects the vault to the observability layer: its counters
// (and the prefetch buffer's) register with reg under the vault.* and
// pfbuffer.* namespaces — additively across vaults, so a full cube's
// snapshot is the aggregate — and structured events flow to tr. Either
// argument may be nil. Call before the simulation starts.
func (c *Controller) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	c.tr = tr
	if reg == nil {
		return
	}
	s := &c.stats
	reg.CounterFunc("vault.demand_reads", s.DemandReads.Value)
	reg.CounterFunc("vault.demand_writes", s.DemandWrites.Value)
	reg.CounterFunc("vault.buffer_hits", s.BufferHits.Value)
	reg.CounterFunc("vault.buffer_misses", s.BufferMisses.Value)
	reg.CounterFunc("vault.row_hits", s.RowHits.Value)
	reg.CounterFunc("vault.row_misses", s.RowMisses.Value)
	reg.CounterFunc("vault.row_conflicts", s.RowConflicts.Value)
	reg.CounterFunc("vault.fetches_issued", s.FetchesIssued.Value)
	reg.CounterFunc("vault.fetches_dropped", s.FetchesDropped.Value)
	reg.CounterFunc("vault.fetches_redundant", s.FetchesRedundant.Value)
	reg.CounterFunc("vault.row_writebacks", s.RowWritebacks.Value)
	reg.CounterFunc("vault.refreshes", s.Refreshes.Value)
	reg.CounterFunc("vault.write_bursts", s.WriteBursts.Value)
	reg.GaugeFunc("vault.read_queue", func() float64 { return float64(len(c.readQ)) })
	reg.GaugeFunc("vault.write_queue", func() float64 { return float64(len(c.writeQ)) })
	reg.GaugeFunc("vault.fetch_queue", func() float64 { return float64(len(c.fetchQ)) })
	c.obsLat = reg.Histogram("vault.service_latency_ps")
	c.buffer.Instrument(reg)
}

// emit publishes one trace event stamped with this vault's id.
func (c *Controller) emit(t obs.EventType, at sim.Time, bank int, row, arg int64) {
	c.tr.Emit(obs.Event{At: int64(at), Type: t, Vault: int32(c.id), Bank: int32(bank), Row: row, Arg: arg})
}

// SetFaults attaches this vault's fault-injection site (nil detaches).
// Call before the simulation starts.
func (c *Controller) SetFaults(site *fault.VaultSite) { c.faults = site }

// AttachAttribution connects the vault to the attribution layer: demand
// spans accrue cause segments here, and every prefetch's fate is
// classified into the ledger (the buffer records eviction outcomes; the
// controller records queue-overflow and poison casualties directly).
// Either argument may be nil. Call before the simulation starts.
func (c *Controller) AttachAttribution(spans *obs.SpanSet, ledger *obs.PrefetchLedger) {
	c.spans = spans
	c.ledger = ledger
	if spans != nil && c.lastRefNear == nil {
		c.lastRefNear = make([]window, len(c.banks))
		c.lastBlkNear = make([]window, len(c.banks))
	}
	c.buffer.SetLedger(ledger, c.id)
}

// overlapPs returns the length of the intersection of [a0,a1) and w.
func overlapPs(a0, a1 sim.Time, w window) sim.Time {
	lo, hi := maxTime(a0, w.start), minTime(a1, w.end)
	if hi > lo {
		return hi - lo
	}
	return 0
}

// chargeWait attributes a read's residence in the queue ([arrived, now))
// across blackout, refresh and plain-queue causes. Blackout and refresh
// windows never overlap on one bank (both occupy it exclusively), so the
// two overlaps are disjoint; clamping keeps the total exact regardless.
func (c *Controller) chargeWait(ref obs.SpanRef, b int, arrived, now sim.Time) {
	if c.spans == nil || !ref.Valid() {
		return
	}
	rem := now - arrived
	if blk := overlapPs(arrived, now, c.lastBlkNear[b]); blk > 0 {
		blk = minTime(blk, rem)
		c.spans.Advance(ref, obs.CauseFaultRetry, int64(blk))
		rem -= blk
	}
	if ref2 := overlapPs(arrived, now, c.lastRefNear[b]); ref2 > 0 {
		c.spans.Advance(ref, obs.CauseRefreshStall, int64(minTime(ref2, rem)))
	}
	c.spans.AdvanceTo(ref, obs.CauseQueue, int64(now))
}

// ID returns the vault number.
func (c *Controller) ID() int { return c.id }

// Scheme returns the active prefetch scheme.
func (c *Controller) Scheme() prefetch.Scheme { return c.scheme }

// tickEpoch advances the engine's feedback epoch by one demand request,
// closing the epoch — hand over and reset the accumulated stats — when the
// period is reached. Called immediately before each OnDemandServed, so the
// triggering request lands in the *new* epoch, matching MMD's historical
// count-then-adapt ordering exactly.
func (c *Controller) tickEpoch() {
	if c.epochObs == nil {
		return
	}
	c.epochReq++
	if c.epochReq >= c.epochPeriod {
		c.epochReq = 0
		st := c.epochAcc
		c.epochAcc = prefetch.EpochStats{}
		c.epochObs.OnEpoch(st)
	}
	c.epochAcc.Demands++
}

// noteBufferHit feeds a prefetch-buffer hit into the epoch accumulator.
func (c *Controller) noteBufferHit() {
	if c.epochObs != nil {
		c.epochAcc.BufferHits++
	}
}

// feedEviction classifies a buffer eviction for the epoch accumulator
// (the ledger's taxonomy: used-and-never-late is timely, used is late,
// untouched is unused) and forwards it to the engine. Every eviction the
// engine sees flows through here.
func (c *Controller) feedEviction(ev pfbuffer.Eviction) {
	if c.epochObs != nil {
		switch {
		case ev.Used && !ev.Late:
			c.epochAcc.UsefulTimely++
		case ev.Used:
			c.epochAcc.UsefulLate++
		default:
			c.epochAcc.EvictedUnused++
		}
	}
	c.pf.OnEviction(ev)
}

// Stats returns the controller's statistics. CollectOps must be called
// first to fold in per-bank operation counts.
func (c *Controller) Stats() *Stats { return &c.stats }

// BufferStats returns the prefetch buffer's statistics.
func (c *Controller) BufferStats() pfbuffer.Stats { return c.buffer.Stats() }

// CollectOps aggregates per-bank DRAM operation counters into Stats.
func (c *Controller) CollectOps() {
	c.stats.BankOps = dram.Ops{}
	for _, b := range c.banks {
		c.stats.BankOps.Add(b.Ops())
	}
}

// Flush drains residency-dependent accounting at end of simulation: every
// row still in the prefetch buffer is evicted so accuracy statistics cover
// it, and dirty rows count as writebacks.
func (c *Controller) Flush() {
	for _, ev := range c.buffer.Flush() {
		c.feedEviction(ev)
		if ev.Dirty {
			c.stats.RowWritebacks.Inc()
		}
	}
}

// Submit delivers a demand request to the vault at the current time.
func (c *Controller) Submit(req Request) {
	if req.Bank < 0 || req.Bank >= len(c.banks) {
		panic(fmt.Sprintf("vault %d: bank %d out of range", c.id, req.Bank))
	}
	if req.Line < 0 || req.Line >= c.lines {
		panic(fmt.Sprintf("vault %d: line %d out of range", c.id, req.Line))
	}
	now := c.eng.Now()
	if req.Write {
		c.stats.DemandWrites.Inc()
	} else {
		c.stats.DemandReads.Inc()
	}

	// The controller checks the prefetch buffer before anything else
	// (§3.1: "the vault controller will first check the prefetch buffer").
	id := pfbuffer.RowID{Bank: req.Bank, Row: req.Row}
	if c.buffer.Lookup(id, req.Line, req.Write, now) {
		c.stats.BufferHits.Inc()
		c.noteBufferHit()
		c.emit(obs.EvPrefetchHit, now, req.Bank, req.Row, int64(req.Line))
		c.pf.OnBufferHit(prefetch.Request{Bank: req.Bank, Row: req.Row, Line: req.Line, Write: req.Write})
		c.spans.AdvanceTo(req.Span, obs.CausePFBufferHit, int64(now+c.pfHitLat))
		c.complete(req, now, now+c.pfHitLat)
		return
	}
	c.stats.BufferMisses.Inc()

	p := pending{req: req, arrived: now}
	if req.Write {
		// Posted write: the writer does not wait for the drain.
		c.complete(req, now, now)
		c.writeQ = append(c.writeQ, p)
		c.writeCount[req.Bank]++
		if len(c.writeQ) > c.stats.MaxWriteQueue {
			c.stats.MaxWriteQueue = len(c.writeQ)
		}
	} else {
		c.readQ = append(c.readQ, p)
		c.readCount[req.Bank]++
		if len(c.readQ) > c.stats.MaxReadQueue {
			c.stats.MaxReadQueue = len(c.readQ)
		}
	}
	c.schedule()
}

// complete finishes a demand request, recording service latency.
func (c *Controller) complete(req Request, arrived, ready sim.Time) {
	c.stats.ServiceLatency.Observe(float64(ready - arrived))
	if c.obsLat != nil {
		c.obsLat.ObserveInt(int64(ready - arrived))
	}
	if req.Done == nil {
		return
	}
	if ready <= c.eng.Now() {
		req.Done(ready)
		return
	}
	// AtWhen passes the scheduled time to Done directly, avoiding a
	// closure allocation per delayed completion.
	c.eng.AtWhen(ready, req.Done)
}

// enqueueFetches admits prefetch directives, deduplicating against the
// buffer and the queue and bounding queue growth (prefetches are hints and
// may be discarded under pressure; dropped directives are counted).
func (c *Controller) enqueueFetches(fs []prefetch.Fetch) {
	for _, f := range fs {
		if c.buffer.Contains(pfbuffer.RowID{Bank: f.Bank, Row: f.Row}) {
			c.stats.FetchesRedundant.Inc()
			continue
		}
		dup := false
		for _, q := range c.fetchQ {
			if q.Bank == f.Bank && q.Row == f.Row {
				dup = true
				break
			}
		}
		if dup {
			c.stats.FetchesRedundant.Inc()
			continue
		}
		if len(c.fetchQ) >= c.maxFetchQ {
			// Drop the oldest directive: newer ones reflect fresher state.
			// Shift down in place so the queue keeps its backing array
			// instead of leaking capacity off the front.
			old := c.fetchQ[0]
			copy(c.fetchQ, c.fetchQ[1:])
			c.fetchQ = c.fetchQ[:len(c.fetchQ)-1]
			c.fetchCount[old.Bank]--
			c.stats.FetchesDropped.Inc()
			// Squeezed out of the queue by bank pressure before it could
			// ever become resident: a conflict victim in the ledger.
			c.ledger.Record(c.id, obs.ConflictVictim)
			if c.epochObs != nil {
				c.epochAcc.ConflictVictims++
			}
			c.emit(obs.EvPrefetchDrop, c.eng.Now(), old.Bank, old.Row, 0)
		}
		c.fetchQ = append(c.fetchQ, f)
		c.fetchCount[f.Bank]++
		if len(c.fetchQ) > c.stats.MaxFetchQueue {
			c.stats.MaxFetchQueue = len(c.fetchQ)
		}
	}
}

// updateDrainMode latches write draining above the high watermark and
// releases it below the low watermark.
func (c *Controller) updateDrainMode() {
	high := c.cfg.HMC.WriteQueue * 3 / 4
	low := c.cfg.HMC.WriteQueue / 4
	if len(c.writeQ) >= high {
		c.draining = true
	} else if len(c.writeQ) <= low {
		c.draining = false
	}
}

// schedule starts jobs on every idle bank that has work. If demand work
// remains queued behind busy banks it arms a retry at the earliest bank
// release: bank-release events from demand jobs are ordinary events, but
// refresh completions are daemon events (refresh re-arms itself forever
// and must not keep the simulation alive), so queued work cannot rely on
// them for a wake-up.
func (c *Controller) schedule() {
	now := c.eng.Now()
	c.updateDrainMode()
	for b := range c.banks {
		if c.busy[b] > now {
			continue
		}
		c.startJob(b, now)
	}
	c.armRefreshWake(now)
	if !c.PendingWork() {
		return
	}
	earliest := sim.Time(-1)
	for b := range c.banks {
		if c.busy[b] > now && (earliest < 0 || c.busy[b] < earliest) {
			earliest = c.busy[b]
		}
	}
	if earliest < 0 {
		return // work exists but targets idle banks: a job just started will wake us
	}
	if c.retryArmed && c.retryAt <= earliest {
		return
	}
	c.retryArmed = true
	c.retryAt = earliest
	c.eng.At(earliest, c.retryFn)
}

// armRefreshWake keeps exactly one daemon wake pending at the earliest
// per-bank refresh deadline. Refresh must fire even in an otherwise idle
// vault, but a standing wake per bank would hold banks x vaults daemon
// events in the queue at all times; since deadlines only ever advance, one
// wake per vault re-armed here is enough. A deadline already due is left
// to startJob (idle bank) or the busy bank's release wake — every started
// job schedules one at its release time.
func (c *Controller) armRefreshWake(now sim.Time) {
	// Earliest deadline still in the future: already-due banks are either
	// refreshing or busy, and their release wakes re-enter schedule().
	earliest := sim.Time(-1)
	for _, t := range c.nextRefresh {
		if t > now && (earliest < 0 || t < earliest) {
			earliest = t
		}
	}
	if earliest < 0 {
		return
	}
	if c.refreshWakeAt > now && c.refreshWakeAt <= earliest {
		return // the armed wake already covers the deadline
	}
	c.refreshWakeAt = earliest
	c.eng.AtDaemon(earliest, c.scheduleFn)
}

// startJob picks and launches at most one job for idle bank b.
// Priority: refresh (mandatory), drained writes, demand reads, dirty row
// stores, prefetch fetches, opportunistic writes.
func (c *Controller) startJob(b int, now sim.Time) {
	// An injected blackout makes the bank unavailable for the window. The
	// busy-release retry re-dispatches queued demand when the window
	// closes; the daemon wake covers work the retry path does not watch
	// (refresh, fetch hints) without extending an otherwise-drained run.
	if until := c.faults.BankBlockedUntil(b, now); until > 0 {
		if c.lastBlkNear != nil && until != c.lastBlkNear[b].end {
			// First dispatch attempt inside a new window: record it so
			// queue time overlapping it is charged to fault_retry. The
			// recorded start is the first blocked attempt, a lower bound
			// on the true window start.
			c.lastBlkNear[b] = window{start: now, end: until}
		}
		if until > c.busy[b] {
			c.busy[b] = until
			c.eng.AtDaemon(until, c.scheduleFn)
		}
		return
	}
	if now >= c.nextRefresh[b] {
		c.runRefresh(b, now)
		return
	}
	if c.draining && c.writeCount[b] > 0 {
		if p, ok := c.takeWrite(b); ok {
			c.runWrite(b, now, p)
			return
		}
	}
	if c.readCount[b] > 0 {
		if p, ok := c.takeRead(b, now); ok {
			c.runRead(b, now, p)
			return
		}
	}
	if c.storeCount[b] > 0 {
		if id, ok := c.takeStore(b); ok {
			c.runStore(b, now, id)
			return
		}
	}
	for c.fetchCount[b] > 0 {
		f, ok := c.takeFetch(b)
		if !ok {
			break
		}
		if c.runFetch(b, now, f) {
			return
		}
	}
	if c.writeCount[b] > 0 {
		if p, ok := c.takeWrite(b); ok {
			c.runWrite(b, now, p)
			return
		}
	}
}

// takeRead removes and returns the FR-FCFS choice among queued reads for
// bank b: the oldest row-buffer hit if any, otherwise the oldest request.
// Reads whose row has meanwhile arrived in the prefetch buffer are served
// from it immediately and do not occupy the bank.
func (c *Controller) takeRead(b int, now sim.Time) (pending, bool) {
	for {
		idx := c.pickQueued(c.readQ, b)
		if idx < 0 {
			return pending{}, false
		}
		p := c.readQ[idx]
		c.readQ = append(c.readQ[:idx], c.readQ[idx+1:]...)
		c.readCount[b]--
		// Service-time buffer re-check: a fetch may have landed the row in
		// the buffer after this request was queued.
		id := pfbuffer.RowID{Bank: p.req.Bank, Row: p.req.Row}
		if c.buffer.Lookup(id, p.req.Line, p.req.Write, now) {
			c.stats.BufferHits.Inc()
			c.noteBufferHit()
			c.emit(obs.EvPrefetchHit, now, p.req.Bank, p.req.Row, int64(p.req.Line))
			c.pf.OnBufferHit(prefetch.Request{Bank: p.req.Bank, Row: p.req.Row, Line: p.req.Line, Write: p.req.Write})
			c.chargeWait(p.req.Span, b, p.arrived, now)
			c.spans.AdvanceTo(p.req.Span, obs.CausePFBufferHit, int64(now+c.pfHitLat))
			c.complete(p.req, p.arrived, now+c.pfHitLat)
			continue
		}
		return p, true
	}
}

// takeWrite removes the scheduler's choice among queued writes for bank b.
func (c *Controller) takeWrite(b int) (pending, bool) {
	idx := c.pickQueued(c.writeQ, b)
	if idx < 0 {
		return pending{}, false
	}
	p := c.writeQ[idx]
	c.writeQ = append(c.writeQ[:idx], c.writeQ[idx+1:]...)
	c.writeCount[b]--
	return p, true
}

// pickQueued returns the index of the FR-FCFS choice among queued requests
// for bank b: the oldest row-buffer hit if any, otherwise the oldest
// request; -1 if none target b.
func (c *Controller) pickQueued(q []pending, b int) int {
	open := c.banks[b].OpenRow()
	frfcfs := c.cfg.HMC.Scheduler == config.FRFCFS && open != dram.NoRow
	oldest := -1
	for i := range q {
		if q[i].req.Bank != b {
			continue
		}
		if oldest < 0 {
			oldest = i
		}
		if frfcfs && q[i].req.Row == open {
			return i
		}
	}
	return oldest
}

// takeFetch removes the first queued fetch directive for bank b.
func (c *Controller) takeFetch(b int) (prefetch.Fetch, bool) {
	for i, f := range c.fetchQ {
		if f.Bank == b {
			c.fetchQ = append(c.fetchQ[:i], c.fetchQ[i+1:]...)
			c.fetchCount[b]--
			return f, true
		}
	}
	return prefetch.Fetch{}, false
}

// takeStore removes the first queued dirty-row writeback for bank b.
func (c *Controller) takeStore(b int) (pfbuffer.RowID, bool) {
	for i, id := range c.storeQ {
		if id.Bank == b {
			c.storeQ = append(c.storeQ[:i], c.storeQ[i+1:]...)
			c.storeCount[b]--
			return id, true
		}
	}
	return pfbuffer.RowID{}, false
}

// actAllowedAt returns the earliest time a new ACT may issue anywhere in
// the vault, honoring tRRD and the four-activation window.
func (c *Controller) actAllowedAt() sim.Time {
	t := c.lastAct + c.timing.RRD
	// actHist[actIdx] is the oldest of the last four ACTs: a fifth ACT
	// within tFAW of it would violate the window.
	if faw := c.actHist[c.actIdx] + c.timing.FAW; faw > t {
		t = faw
	}
	return t
}

// recordAct logs an activation for the vault-level rate limits.
func (c *Controller) recordAct(at sim.Time) {
	c.lastAct = at
	c.actHist[c.actIdx] = at
	c.actIdx = (c.actIdx + 1) % len(c.actHist)
}

// activate issues an ACT on bank b at the earliest legal time >= start,
// honoring both the bank's own constraints and the vault-level tRRD/tFAW.
func (c *Controller) activate(b int, start sim.Time, row int64) {
	bank := c.banks[b]
	at := maxTime(start, bank.EarliestActivate())
	at = maxTime(at, c.actAllowedAt())
	bank.Activate(at, row)
	c.recordAct(at)
	c.emit(obs.EvRowActivate, at, b, row, 0)
}

// openFor brings bank b to "row open" for row, returning the row-buffer
// state encountered, the displaced row (or dram.NoRow), the time the
// column path is usable, and — on a conflict — when the precharge that
// closed the displaced row completed (0 otherwise; attribution charges
// the request's time up to it as bank_conflict).
func (c *Controller) openFor(b int, start sim.Time, row int64) (dram.RowState, int64, sim.Time, sim.Time) {
	bank := c.banks[b]
	state := bank.Classify(row)
	displaced := dram.NoRow
	preDone := sim.Time(0)
	switch state {
	case dram.RowHit:
		// Row already open; column legal at EarliestColumn.
	case dram.RowMiss:
		c.activate(b, start, row)
	case dram.RowConflict:
		displaced = bank.OpenRow()
		preAt := maxTime(start, bank.EarliestPrecharge())
		preDone = bank.Precharge(preAt)
		c.activate(b, preDone, row)
	}
	return state, displaced, maxTime(start, bank.EarliestColumn()), preDone
}

// runRead executes one demand read on bank b.
func (c *Controller) runRead(b int, now sim.Time, p pending) {
	bank := c.banks[b]
	state, displaced, colAt, preDone := c.openFor(b, now, p.req.Row)
	dataDone := bank.Read(colAt)
	c.busy[b] = dataDone
	c.recordRowState(state, now, b, p.req.Row)
	// Attribution: queue residence first, then — on a conflict — the
	// precharge closing the displaced row, then the access itself.
	c.chargeWait(p.req.Span, b, p.arrived, now)
	if preDone > 0 {
		c.spans.AdvanceTo(p.req.Span, obs.CauseBankConflict, int64(minTime(preDone, dataDone)))
	}
	c.spans.AdvanceTo(p.req.Span, obs.CauseService, int64(dataDone))
	c.complete(p.req, p.arrived, dataDone)
	c.tickEpoch()
	fetches := c.pf.OnDemandServed(
		prefetch.Request{Bank: p.req.Bank, Row: p.req.Row, Line: p.req.Line, Write: false},
		state, displaced)
	c.dispatchFetches(b, p.req.Row, fetches)
	c.autoPrecharge(b, p.req.Row)
	c.eng.At(c.busy[b], c.scheduleFn)
}

// autoPrecharge closes the row after a demand access under the closed-page
// policy (after any inline fetch has used it).
func (c *Controller) autoPrecharge(b int, row int64) {
	if c.cfg.HMC.PagePolicy != config.ClosedPage {
		return
	}
	bank := c.banks[b]
	if bank.OpenRow() != row {
		return // already closed (e.g. a CloseAfter fetch precharged)
	}
	release := bank.Precharge(maxTime(c.busy[b], bank.EarliestPrecharge()))
	if release > c.busy[b] {
		c.busy[b] = release
	}
}

// runWrite drains one demand write to bank b.
func (c *Controller) runWrite(b int, now sim.Time, p pending) {
	// Service-time buffer re-check: a fetch may have landed the row in the
	// buffer after this write was queued; writing the bank then would
	// leave the buffered copy stale.
	id := pfbuffer.RowID{Bank: p.req.Bank, Row: p.req.Row}
	if c.buffer.Lookup(id, p.req.Line, true, now) {
		c.stats.BufferHits.Inc()
		c.noteBufferHit()
		c.emit(obs.EvPrefetchHit, now, p.req.Bank, p.req.Row, int64(p.req.Line))
		c.pf.OnBufferHit(prefetch.Request{Bank: p.req.Bank, Row: p.req.Row, Line: p.req.Line, Write: true})
		c.schedule()
		return
	}
	bank := c.banks[b]
	state, displaced, colAt, _ := c.openFor(b, now, p.req.Row)
	end := bank.Write(colAt)
	c.busy[b] = end
	c.recordRowState(state, now, b, p.req.Row)
	c.stats.WriteBursts.Inc()
	c.tickEpoch()
	fetches := c.pf.OnDemandServed(
		prefetch.Request{Bank: p.req.Bank, Row: p.req.Row, Line: p.req.Line, Write: true},
		state, displaced)
	c.dispatchFetches(b, p.req.Row, fetches)
	c.autoPrecharge(b, p.req.Row)
	c.eng.At(c.busy[b], c.scheduleFn)
}

// dispatchFetches routes a demand-triggered fetch of the *currently open
// row* into the same bank job — fetch-then-precharge is one action in the
// paper's scheme, and deferring it behind queued demand would let the
// demand stream drain the row from the bank before the copy happens. All
// other fetch targets go through the queue.
func (c *Controller) dispatchFetches(b int, servedRow int64, fetches []prefetch.Fetch) {
	queued := c.fetchScratch[:0]
	for _, f := range fetches {
		if f.Bank == b && f.Row == servedRow && c.banks[b].OpenRow() == servedRow {
			c.runInlineFetch(b, f)
			continue
		}
		queued = append(queued, f)
	}
	c.enqueueFetches(queued)
	c.fetchScratch = queued[:0]
}

// runInlineFetch copies the open row to the buffer immediately after the
// demand column access that triggered it, extending the bank job.
func (c *Controller) runInlineFetch(b int, f prefetch.Fetch) {
	id := pfbuffer.RowID{Bank: f.Bank, Row: f.Row}
	if c.buffer.Contains(id) {
		c.stats.FetchesRedundant.Inc()
		return
	}
	bank := c.banks[b]
	start := c.reserveTSV(bank.EarliestColumn())
	end := c.tsvComplete(start, bank.FetchRow(start, c.lines))
	release := end
	if f.CloseAfter {
		release = bank.Precharge(maxTime(end, bank.EarliestPrecharge()))
	}
	if release > c.busy[b] {
		c.busy[b] = release
	}
	c.stats.FetchesIssued.Inc()
	if c.epochObs != nil {
		c.epochAcc.FetchesIssued++
	}
	c.emit(obs.EvPrefetchIssue, start, b, f.Row, 1)
	c.scheduleFill(end, id, f.Touched)
}

// runFetch copies a whole row into the prefetch buffer. It reports whether
// the fetch actually occupied the bank (false when the row turned out to be
// resident already).
func (c *Controller) runFetch(b int, now sim.Time, f prefetch.Fetch) bool {
	id := pfbuffer.RowID{Bank: f.Bank, Row: f.Row}
	if c.buffer.Contains(id) {
		c.stats.FetchesRedundant.Inc()
		return false
	}
	bank := c.banks[b]
	_, _, colAt, _ := c.openFor(b, now, f.Row)
	start := c.reserveTSV(colAt)
	end := c.tsvComplete(start, bank.FetchRow(start, c.lines))
	release := end
	if f.CloseAfter {
		preAt := maxTime(end, bank.EarliestPrecharge())
		release = bank.Precharge(preAt)
	}
	c.busy[b] = release
	c.stats.FetchesIssued.Inc()
	if c.epochObs != nil {
		c.epochAcc.FetchesIssued++
	}
	c.emit(obs.EvPrefetchIssue, start, b, f.Row, 0)
	c.scheduleFill(end, id, f.Touched)
	c.eng.At(release, c.scheduleFn)
	return true
}

// scheduleFill arranges for the fetched row to land in the buffer at end,
// in a pooled fill record.
func (c *Controller) scheduleFill(end sim.Time, id pfbuffer.RowID, touched uint64) {
	i := c.fillFree
	if i >= 0 {
		c.fillFree = c.fills[i].next
	} else {
		i = len(c.fills)
		c.fills = append(c.fills, fill{})
	}
	c.fills[i] = fill{id: id, touched: touched}
	c.eng.AtArg(end, c.landFillFn, uint64(i))
}

// landFill fires when fill record i's transfer completes. The record is
// released before the insert, which may start another fetch.
func (c *Controller) landFill(i uint64) {
	f := c.fills[i]
	c.fills[i].next = c.fillFree
	c.fillFree = int(i)
	c.insertFetched(f.id, f.touched, c.eng.Now())
}

// insertFetched lands a fetched row in the prefetch buffer. A poisoned
// row (fault injection) arrives damaged and is discarded instead: the
// bank work was spent, the buffer is not filled — the next demand access
// misses and re-fetches — and the prefetch engine's usefulness feedback
// is charged with a zero-utilization eviction.
func (c *Controller) insertFetched(id pfbuffer.RowID, touched uint64, at sim.Time) {
	if c.faults.PoisonInsert(id.Bank, id.Row, at) {
		c.feedEviction(pfbuffer.Eviction{ID: id})
		// The fetch was spent but no demand can ever use it: pollution in
		// the ledger, and excluded from buffer accuracy (the row never
		// became resident).
		c.ledger.Record(c.id, obs.EvictedUnused)
		c.buffer.NotePoisoned()
		return
	}
	if ev, ok := c.buffer.Insert(id, touched, at); ok {
		c.onEviction(ev)
	}
	// A demand read for this row already queued means the prefetch lost
	// (part of) the race: any use it sees is late.
	if (*queueView)(c).PendingReadsForRow(id.Bank, id.Row) > 0 {
		c.buffer.MarkLate(id)
	}
}

// reserveTSV returns the earliest time a whole-row TSV transfer may begin
// at or after `at`, honoring the shared data path when it is modeled.
func (c *Controller) reserveTSV(at sim.Time) sim.Time {
	if c.tsvRowTime == 0 {
		return at
	}
	return maxTime(at, c.tsvFree)
}

// tsvComplete returns when a row transfer that began at start and finished
// its bank-side bursts at bankEnd has fully crossed the data path, and
// marks the path busy until then.
func (c *Controller) tsvComplete(start, bankEnd sim.Time) sim.Time {
	if c.tsvRowTime == 0 {
		return bankEnd
	}
	end := maxTime(bankEnd, start+c.tsvRowTime)
	c.tsvFree = end
	return end
}

// runStore writes a dirty evicted row back into its bank.
func (c *Controller) runStore(b int, now sim.Time, id pfbuffer.RowID) {
	bank := c.banks[b]
	_, _, colAt, _ := c.openFor(b, now, id.Row)
	start := c.reserveTSV(colAt)
	end := c.tsvComplete(start, bank.StoreRow(start, c.lines))
	preAt := maxTime(end, bank.EarliestPrecharge())
	release := bank.Precharge(preAt)
	c.busy[b] = release
	c.stats.RowWritebacks.Inc()
	c.emit(obs.EvRowWriteback, start, b, id.Row, 0)
	c.eng.At(release, c.scheduleFn)
}

// runRefresh performs one per-bank refresh (precharging first if needed).
func (c *Controller) runRefresh(b int, now sim.Time) {
	bank := c.banks[b]
	start := now
	if bank.IsOpen() {
		preAt := maxTime(now, bank.EarliestPrecharge())
		start = bank.Precharge(preAt)
	}
	done := bank.Refresh(maxTime(start, bank.EarliestActivate()))
	c.busy[b] = done
	c.stats.Refreshes.Inc()
	if c.lastRefNear != nil {
		c.lastRefNear[b] = window{start: now, end: done}
	}
	c.nextRefresh[b] += c.timing.REFI
	// The bank's next deadline is covered by armRefreshWake when this
	// schedule() pass ends. Daemon: refresh self-sustains forever; queued
	// demand is woken by the scheduler's explicit retry instead.
	c.eng.AtDaemon(done, c.scheduleFn)
}

// onEviction routes a buffer eviction to the engine and queues the row's
// writeback to its bank. The paper's buffer replaces rows *back to the
// memory bank* unconditionally (it has no per-row cleanliness tracking);
// with WritebackDirtyOnly set, only written-to rows go back.
func (c *Controller) onEviction(ev pfbuffer.Eviction) {
	c.emit(obs.EvPrefetchEvict, c.eng.Now(), ev.ID.Bank, ev.ID.Row, int64(ev.Util))
	c.feedEviction(ev)
	if ev.Dirty || !c.cfg.PFBuffer.WritebackDirtyOnly {
		c.storeQ = append(c.storeQ, ev.ID)
		c.storeCount[ev.ID.Bank]++
		c.schedule()
	}
}

// recordRowState counts a demand access's row-buffer outcome and
// publishes it as a trace event.
func (c *Controller) recordRowState(s dram.RowState, at sim.Time, bank int, row int64) {
	switch s {
	case dram.RowHit:
		c.stats.RowHits.Inc()
		c.emit(obs.EvRowHit, at, bank, row, 0)
	case dram.RowMiss:
		c.stats.RowMisses.Inc()
		c.emit(obs.EvRowMiss, at, bank, row, 0)
	case dram.RowConflict:
		c.stats.RowConflicts.Inc()
		c.emit(obs.EvRowConflict, at, bank, row, 0)
	}
}

// CheckInvariant validates the vault's structural invariants: the
// prefetch buffer's occupancy and recency permutation, every bank's
// activate/precharge accounting, and — for engines that expose one — the
// prefetch engine's table bounds (RUT/CT). Read-only; wired into the
// simulator's epoch invariant checker.
func (c *Controller) CheckInvariant() error {
	if err := c.buffer.CheckInvariant(); err != nil {
		return fmt.Errorf("vault %d: %w", c.id, err)
	}
	for b, bank := range c.banks {
		if err := bank.CheckInvariant(); err != nil {
			return fmt.Errorf("vault %d bank %d: %w", c.id, b, err)
		}
	}
	if chk, ok := c.pf.(interface{ CheckInvariant() error }); ok {
		if err := chk.CheckInvariant(); err != nil {
			return fmt.Errorf("vault %d: %w", c.id, err)
		}
	}
	// The per-bank work counters must mirror the queues exactly; a skew
	// would make startJob skip queued work forever.
	for b := range c.banks {
		nr, nw, ns, nf := 0, 0, 0, 0
		for i := range c.readQ {
			if c.readQ[i].req.Bank == b {
				nr++
			}
		}
		for i := range c.writeQ {
			if c.writeQ[i].req.Bank == b {
				nw++
			}
		}
		for _, id := range c.storeQ {
			if id.Bank == b {
				ns++
			}
		}
		for _, f := range c.fetchQ {
			if f.Bank == b {
				nf++
			}
		}
		if nr != c.readCount[b] || nw != c.writeCount[b] || ns != c.storeCount[b] || nf != c.fetchCount[b] {
			return fmt.Errorf("vault %d bank %d: work counts (r=%d w=%d s=%d f=%d) disagree with queues (r=%d w=%d s=%d f=%d)",
				c.id, b, c.readCount[b], c.writeCount[b], c.storeCount[b], c.fetchCount[b], nr, nw, ns, nf)
		}
	}
	return nil
}

// PendingWork reports whether the controller still has queued demand,
// prefetch or writeback work (used by drain loops in tests and at
// simulation end).
func (c *Controller) PendingWork() bool {
	return len(c.readQ) > 0 || len(c.writeQ) > 0 || len(c.storeQ) > 0
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}
