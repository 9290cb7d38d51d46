package hmc

import (
	"fmt"

	"camps/internal/config"
	"camps/internal/fault"
	"camps/internal/obs"
	"camps/internal/pfbuffer"
	"camps/internal/prefetch"
	"camps/internal/sim"
	"camps/internal/stats"
	"camps/internal/vault"
)

// Cube is a complete HMC main-memory system: the external (processor-side)
// HMC controller, the serial links, the crossbar, and all vault
// controllers. It is the component the cache hierarchy talks to.
type Cube struct {
	eng     *sim.Engine
	banks   int // banks per vault, for the fault sites
	mapping Mapping
	vaults  []*vault.Controller
	links   []*Link

	lineBytes int
	headerB   int
	switchLat sim.Time
	ctrlLat   sim.Time

	// Optional per-vault crossbar ingress serialization.
	portFree []sim.Time
	portBps  int64

	reads    stats.Counter
	writes   stats.Counter
	inflight uint64             // reads issued whose data is not yet back
	readAMAT stats.LatencyAccum // request issue -> data back at controller
	readHist *stats.Histogram   // same samples, 5ns buckets to 2us

	// Observability (nil unless Instrument was called).
	obsLat *obs.Histogram

	// Free list of in-flight access records; steady-state requests
	// allocate nothing.
	accFree []*access

	// Fault injection (empty unless SetFaults was called with an
	// injector): per-vault ingress-stall sites. All site methods are
	// nil-safe, so a cube without faults carries no extra state.
	vsites []*fault.VaultSite

	// Attribution (nil unless Instrument attached a suite with attribution
	// enabled): the cube charges each read's span with the request path
	// (link, crossbar, injected stalls) and retires it when the response
	// reaches the processor side.
	spans *obs.SpanSet
}

// NewCube builds the cube with one prefetch scheme across all vaults.
func NewCube(eng *sim.Engine, cfg config.Config, scheme prefetch.Scheme) *Cube {
	c := &Cube{
		eng:       eng,
		banks:     cfg.HMC.Banks(),
		mapping:   NewMapping(cfg),
		vaults:    make([]*vault.Controller, cfg.HMC.Vaults),
		links:     make([]*Link, cfg.Links.Count),
		lineBytes: cfg.L3.LineBytes,
		headerB:   cfg.Links.HeaderBytes,
		switchLat: cfg.Links.SwitchDelay,
		ctrlLat:   cfg.Links.CtrlOverhead,
		readHist:  stats.NewHistogram(400, 5000), // 5ns buckets up to 2us
	}
	for i := range c.vaults {
		c.vaults[i] = vault.New(eng, cfg, scheme, i)
	}
	for i := range c.links {
		c.links[i] = newLink(cfg.Links)
	}
	if cfg.Links.VaultPortGBps > 0 {
		c.portBps = cfg.Links.VaultPortGBps * 1_000_000_000
		c.portFree = make([]sim.Time, cfg.HMC.Vaults)
	}
	return c
}

// Instrument attaches the whole memory system to the run's observability
// suite: the cube registers its controller-level counters and read-latency
// histogram under the hmc.* namespace, every vault (and its prefetch
// buffer) registers under vault.* / pfbuffer.*, and links publish flit
// events. When attribution is enabled, the cube charges link/crossbar
// segments and retires spans, and every vault charges its
// queue/conflict/service segments and classifies prefetches into the
// ledger. Call before the simulation starts.
func (c *Cube) Instrument(suite *obs.Suite) {
	reg := suite.Registry
	reg.CounterFunc("hmc.reads", c.reads.Value)
	reg.CounterFunc("hmc.writes", c.writes.Value)
	reg.GaugeFunc("hmc.inflight_reads", func() float64 { return float64(c.inflight) })
	c.obsLat = reg.Histogram("hmc.read_latency_ps")
	c.spans = suite.Spans
	for _, v := range c.vaults {
		v.Instrument(suite)
	}
	for i, l := range c.links {
		l.instrument(suite.Tracer, i)
	}
}

// ingress returns the time a request packet of n bytes arriving at the
// crossbar at `at` is fully delivered into vault v, honoring the vault's
// ingress port when modeled.
func (c *Cube) ingress(v int, at sim.Time, n int) sim.Time {
	arrive := at + c.switchLat
	if c.portBps == 0 {
		return arrive
	}
	start := arrive
	if c.portFree[v] > start {
		start = c.portFree[v]
	}
	end := start + sim.Time(int64(n)*1_000_000_000_000/c.portBps)
	c.portFree[v] = end
	return end
}

// SetFaults threads a fault injector through the whole memory path: CRC
// sites onto every link direction, and stall/poison/blackout sites onto
// every vault. A nil injector leaves the cube fault-free (all sites nil).
// Call before the simulation starts.
func (c *Cube) SetFaults(inj *fault.Injector) {
	for i, l := range c.links {
		l.setFaults(inj, i)
	}
	c.vsites = make([]*fault.VaultSite, len(c.vaults))
	for i, v := range c.vaults {
		site := inj.Vault(i, c.banks)
		c.vsites[i] = site
		v.SetFaults(site)
	}
}

// Invariants returns the memory system's structural invariants for the
// simulator's epoch checker: read-request accounting (issued == completed
// + in-flight) and every vault's internal state (prefetch-buffer
// occupancy and recency permutation, bank activate/precharge accounting,
// prefetch-engine table bounds). All checks are read-only.
func (c *Cube) Invariants() []sim.Invariant {
	return []sim.Invariant{
		{Name: "hmc-read-accounting", Check: func() error {
			issued, completed := c.reads.Value(), c.readAMAT.Count()
			if issued != completed+c.inflight {
				return fmt.Errorf("hmc: %d reads issued but %d completed + %d in flight",
					issued, completed, c.inflight)
			}
			return nil
		}},
		{Name: "vault-state", Check: func() error {
			for _, v := range c.vaults {
				if err := v.CheckInvariant(); err != nil {
					return err
				}
			}
			return nil
		}},
	}
}

// linkFor statically routes a vault's traffic over one link, spreading
// vaults evenly (32 vaults over 4 links).
func (c *Cube) linkFor(vaultID int) *Link { return c.links[vaultID%len(c.links)] }

// ReadLine issues one cache-line read at the current time; done fires
// when the data arrives back at the processor-side controller. span is
// the read's attribution span (the zero ref when attribution is off): the
// request path is charged to it here, and readDone retires it.
func (c *Cube) ReadLine(addr uint64, span obs.SpanRef, done func(at sim.Time)) {
	c.reads.Inc()
	c.inflight++
	a, atVault := c.request(addr, c.headerB, span)
	a.done = done
	a.req.Done = a.vdoneFn
	c.eng.At(atVault, a.submitFn)
}

// WriteLine posts one cache-line writeback at the current time: the
// request packet carries the data, and nothing comes back.
func (c *Cube) WriteLine(addr uint64) {
	c.writes.Inc()
	a, atVault := c.request(addr, c.headerB+c.lineBytes, obs.SpanRef{})
	a.req.Write = true
	c.eng.At(atVault, a.submitFn)
}

// request models an n-byte request packet on its way to addr's vault:
// external controller processing, serialization over the link, the
// crossbar hop (and optional vault ingress port), and any injected
// ingress stall. It charges those segments to span and returns the
// request's access record with the time the vault sees the request.
func (c *Cube) request(addr uint64, n int, span obs.SpanRef) (*access, sim.Time) {
	now := c.eng.Now()
	loc := c.mapping.Decode(Address(addr))
	link := c.linkFor(loc.Vault)
	atCube, retry := link.sendRequest(now+c.ctrlLat, n)
	preStall := c.ingress(loc.Vault, atCube, n)
	atVault := preStall
	if c.vsites != nil {
		// Injected TSV/arbitration stall: the vault sees the request late.
		atVault += c.vsites[loc.Vault].StallDelay(atVault)
	}
	if span.Valid() {
		// CRC retransmissions first (folded into the link delivery), then
		// controller+link up to delivery at the cube, crossbar/ingress,
		// and any injected ingress stall.
		c.spans.Advance(span, obs.CauseFaultRetry, int64(retry))
		c.spans.AdvanceTo(span, obs.CauseLink, int64(atCube))
		c.spans.AdvanceTo(span, obs.CauseXbar, int64(preStall))
		c.spans.AdvanceTo(span, obs.CauseFaultRetry, int64(atVault))
		c.spans.SetVault(span, loc.Vault)
	}
	a := c.allocAccess()
	a.v = c.vaults[loc.Vault]
	a.link = link
	a.start = now
	a.req = vault.Request{Bank: loc.Bank, Row: loc.Row, Line: loc.Line, Span: span}
	return a, atVault
}

// access is the pooled per-request state of one in-flight cube access: its
// submit and read-completion callbacks are bound to the record once, so
// issuing a request schedules engine events without allocating closures.
type access struct {
	c     *Cube
	v     *vault.Controller
	link  *Link
	req   vault.Request
	done  func(at sim.Time)
	start sim.Time

	submitFn func()
	vdoneFn  func(sim.Time)
}

func (c *Cube) allocAccess() *access {
	if n := len(c.accFree); n > 0 {
		a := c.accFree[n-1]
		c.accFree[n-1] = nil
		c.accFree = c.accFree[:n-1]
		return a
	}
	a := &access{c: c}
	a.submitFn = a.submit
	a.vdoneFn = a.readDone
	return a
}

func (c *Cube) releaseAccess(a *access) {
	a.v = nil
	a.link = nil
	a.done = nil
	a.req = vault.Request{}
	c.accFree = append(c.accFree, a)
}

// submit delivers the request to its vault. Writes release the record
// immediately (posted semantics: nothing comes back); reads keep it alive
// until readDone. The record is released before Submit runs because Submit
// may complete a read synchronously (prefetch-buffer hit), and readDone
// releasing an already-released record would corrupt the free list.
func (a *access) submit() {
	if a.req.Done == nil {
		v, req := a.v, a.req
		a.c.releaseAccess(a)
		v.Submit(req)
		return
	}
	a.v.Submit(a.req) // released in readDone
}

// readDone fires when the vault has the read's data ready; it models the
// response path back to the processor-side controller and recycles the
// access record before invoking the caller's callback (which may itself
// issue new accesses).
func (a *access) readDone(ready sim.Time) {
	c, link, start, done := a.c, a.link, a.start, a.done
	ref := a.req.Span
	c.releaseAccess(a)
	// Response: crossbar back, response packet with data.
	back, respRetry := link.sendResponse(ready+c.switchLat, c.headerB+c.lineBytes)
	// The vault advanced the span to `ready`; the crossbar hop, any CRC
	// retransmissions, and the link transfer close it out at `back`.
	c.spans.AdvanceTo(ref, obs.CauseXbar, int64(ready+c.switchLat))
	c.spans.Advance(ref, obs.CauseFaultRetry, int64(respRetry))
	c.spans.Retire(ref, obs.CauseLink, int64(back))
	c.inflight--
	c.readAMAT.Observe(float64(back - start))
	c.readHist.Observe(float64(back - start))
	if c.obsLat != nil {
		c.obsLat.ObserveInt(int64(back - start))
	}
	if done != nil {
		if back <= c.eng.Now() {
			done(back)
		} else {
			c.eng.AtWhen(back, done)
		}
	}
}

// ReadAMAT returns the accumulated read-latency distribution (the
// main-memory access time the paper's Figure 8 reports), in picoseconds.
func (c *Cube) ReadAMAT() stats.LatencyAccum { return c.readAMAT }

// ReadLatencyQuantile returns an upper bound on the q-quantile of read
// latency in picoseconds (5 ns resolution; past 2 us, the largest
// observed read latency).
func (c *Cube) ReadLatencyQuantile(q float64) float64 { return c.readHist.Quantile(q) }

// Vault returns vault controller i (for tests and detailed inspection).
func (c *Cube) Vault(i int) *vault.Controller { return c.vaults[i] }

// Vaults returns the vault count.
func (c *Cube) Vaults() int { return len(c.vaults) }

// LinkStats returns per-link traffic counters.
func (c *Cube) LinkStats() []LinkStats {
	out := make([]LinkStats, len(c.links))
	for i, l := range c.links {
		out[i] = l.stats()
	}
	return out
}

// Flush finalizes end-of-run accounting in every vault (buffer flush for
// prefetch accuracy, DRAM op collection).
func (c *Cube) Flush() {
	for _, v := range c.vaults {
		v.Flush()
		v.CollectOps()
	}
}

// VaultStats aggregates all vault statistics into one Stats value.
// Call Flush first.
func (c *Cube) VaultStats() vault.Stats {
	var agg vault.Stats
	for _, v := range c.vaults {
		agg.Merge(v.Stats())
	}
	return agg
}

// BufferStats aggregates all prefetch-buffer statistics.
func (c *Cube) BufferStats() pfbuffer.Stats {
	var agg pfbuffer.Stats
	for _, v := range c.vaults {
		agg.Merge(v.BufferStats())
	}
	return agg
}
