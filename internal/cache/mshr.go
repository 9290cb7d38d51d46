package cache

import (
	"camps/internal/obs"
	"camps/internal/sim"
	"camps/internal/stats"
)

// Backend is the memory below the MSHR file (the HMC cube).
type Backend interface {
	// ReadLine fetches one cache line for a primary miss; done fires when
	// data returns. span is that miss's attribution span (the zero ref
	// when attribution is off), which the backend charges and retires.
	ReadLine(addr uint64, span obs.SpanRef, done func(at sim.Time))
	// WriteLine posts one cache-line writeback.
	WriteLine(addr uint64)
}

// MSHRFile models the shared L3 miss-status holding registers: it bounds
// the number of distinct outstanding line fetches and coalesces concurrent
// misses to the same line into one memory request. Requests that arrive
// with the file full wait in an overflow queue and issue as entries free
// up — the structural hazard a real MSHR file creates.
type MSHRFile struct {
	eng     *sim.Engine
	backend Backend
	entries int

	// The file is a fixed table of entry slots. live holds the outstanding
	// line addresses densely packed, and liveSlot[k] names live[k]'s slot,
	// so finding a line is one scan of at most entries words; free lists
	// the idle slots, and pool recycles waiter slices. Each slot's
	// completion callback is bound at construction, so a primary miss
	// issues to the backend without allocating a closure or a waiter
	// slice in steady state.
	table    []mshrEntry
	live     []uint64
	liveSlot []int32
	free     []int32
	pool     [][]waiter
	overflow []mshrReq

	coalesced stats.Counter
	stalls    stats.Counter
	issued    stats.Counter
	peak      int

	tr    *obs.Tracer  // nil unless Instrument was called
	spans *obs.SpanSet // nil unless attribution is enabled
}

type mshrEntry struct {
	pos     int32 // index of this slot's line in live while outstanding
	waiters []waiter
	fire    func(at sim.Time) // completion callback bound to this slot
}

// waiter is one requester riding an outstanding line fetch. The primary
// miss's span travels with the backend request, so its waiter carries the
// zero ref; secondary misses keep their spans here and retire them as
// queue time when the fetch returns.
type waiter struct {
	done func(at sim.Time)
	span obs.SpanRef
}

type mshrReq struct {
	addr uint64
	done func(at sim.Time)
	span obs.SpanRef
}

// NewMSHRFile wraps backend with an entries-deep MSHR file.
func NewMSHRFile(eng *sim.Engine, backend Backend, entries int) *MSHRFile {
	if entries <= 0 {
		panic("cache: MSHR file needs at least one entry")
	}
	m := &MSHRFile{
		eng:      eng,
		backend:  backend,
		entries:  entries,
		table:    make([]mshrEntry, entries),
		live:     make([]uint64, 0, entries),
		liveSlot: make([]int32, 0, entries),
		free:     make([]int32, 0, entries),
	}
	for i := entries - 1; i >= 0; i-- {
		slot := int32(i)
		m.table[i].fire = func(at sim.Time) { m.complete(slot, at) }
		m.free = append(m.free, slot)
	}
	return m
}

// Instrument attaches the MSHR file to the run's observability suite: its
// counters register under the mshr.* namespace, stall/coalesce events go
// to the tracer, and, when attribution is enabled, every demand read
// entering the file opens a span that follows it down the memory system.
func (m *MSHRFile) Instrument(suite *obs.Suite) {
	m.tr = suite.Tracer
	m.spans = suite.Spans
	reg := suite.Registry
	reg.CounterFunc("mshr.coalesced", m.coalesced.Value)
	reg.CounterFunc("mshr.stalls", m.stalls.Value)
	reg.CounterFunc("mshr.issued", m.issued.Value)
	reg.GaugeFunc("mshr.outstanding", func() float64 { return float64(len(m.live)) })
	reg.GaugeFunc("mshr.peak", func() float64 { return float64(m.peak) })
}

// lookup returns the slot of addr's outstanding fetch, or -1.
func (m *MSHRFile) lookup(addr uint64) int32 {
	for k, a := range m.live {
		if a == addr {
			return m.liveSlot[k]
		}
	}
	return -1
}

// ReadLine fetches one cache line through the file, coalescing it onto an
// outstanding fetch of the same line or waiting for a free entry.
func (m *MSHRFile) ReadLine(addr uint64, done func(at sim.Time)) {
	ref := m.spans.Begin(int64(m.eng.Now()))
	if slot := m.lookup(addr); slot >= 0 {
		// Secondary miss: ride the outstanding fetch.
		e := &m.table[slot]
		e.waiters = append(e.waiters, waiter{done: done, span: ref})
		m.coalesced.Inc()
		m.tr.Emit(obs.Event{At: int64(m.eng.Now()), Type: obs.EvMSHRCoalesce,
			Vault: -1, Row: int64(addr), Arg: int64(len(m.live))})
		return
	}
	if len(m.live) >= m.entries {
		m.stalls.Inc()
		m.overflow = append(m.overflow, mshrReq{addr: addr, done: done, span: ref})
		m.tr.Emit(obs.Event{At: int64(m.eng.Now()), Type: obs.EvMSHRStall,
			Vault: -1, Row: int64(addr), Arg: int64(len(m.overflow))})
		return
	}
	m.allocate(addr, done, ref)
}

// WriteLine passes writebacks straight through (posted writes occupy no
// MSHR in this model; they carry their own data).
func (m *MSHRFile) WriteLine(addr uint64) { m.backend.WriteLine(addr) }

func (m *MSHRFile) allocate(addr uint64, done func(at sim.Time), ref obs.SpanRef) {
	slot := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	e := &m.table[slot]
	e.pos = int32(len(m.live))
	m.live = append(m.live, addr)
	m.liveSlot = append(m.liveSlot, slot)
	var ws []waiter
	if n := len(m.pool); n > 0 {
		ws = m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
	}
	// The primary's span rides the backend request, not the waiter list,
	// so its waiter carries the zero ref.
	e.waiters = append(ws, waiter{done: done})
	m.peak = max(m.peak, len(m.live))
	m.issued.Inc()
	m.backend.ReadLine(addr, ref, e.fire)
}

// complete fires when slot's line fetch returns. The slot is vacated
// before the waiters run: a waiter may re-enter ReadLine (even for the
// same address — that correctly issues a fresh fetch) and may claim this
// very slot, so the entry must not be touched afterwards.
func (m *MSHRFile) complete(slot int32, at sim.Time) {
	e := &m.table[slot]
	ws := e.waiters
	e.waiters = nil
	// Move the last live line into this slot's place.
	last := len(m.live) - 1
	m.live[e.pos], m.liveSlot[e.pos] = m.live[last], m.liveSlot[last]
	m.table[m.liveSlot[e.pos]].pos = e.pos
	m.live, m.liveSlot = m.live[:last], m.liveSlot[:last]
	m.free = append(m.free, slot)
	for _, w := range ws {
		// Secondary misses spent their whole life waiting behind the
		// primary fetch; their spans close here as queue time.
		m.spans.Retire(w.span, obs.CauseQueue, int64(at))
		w.done(at)
	}
	m.drainOverflow()
	for i := range ws {
		ws[i] = waiter{} // drop callback refs before the slice is recycled
	}
	m.pool = append(m.pool, ws[:0])
}

// drainOverflow walks the queue once: requests matching an outstanding
// line coalesce onto it (regardless of capacity); others issue while
// entries are free; the rest keep waiting in order.
func (m *MSHRFile) drainOverflow() {
	kept := m.overflow[:0]
	for _, req := range m.overflow {
		if slot := m.lookup(req.addr); slot >= 0 {
			e := &m.table[slot]
			e.waiters = append(e.waiters, waiter{done: req.done, span: req.span})
			m.coalesced.Inc()
			continue
		}
		if len(m.live) < m.entries {
			// Time stalled in the overflow queue is queue time; the rest
			// of the journey accrues downstream.
			m.spans.AdvanceTo(req.span, obs.CauseQueue, int64(m.eng.Now()))
			m.allocate(req.addr, req.done, req.span)
			continue
		}
		kept = append(kept, req)
	}
	m.overflow = kept
}

// Coalesced returns secondary misses merged into outstanding fetches.
func (m *MSHRFile) Coalesced() uint64 { return m.coalesced.Value() }

// Stalls returns requests that waited for a free entry.
func (m *MSHRFile) Stalls() uint64 { return m.stalls.Value() }
