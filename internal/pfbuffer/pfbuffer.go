// Package pfbuffer implements the per-vault prefetch buffer of the CAMPS
// paper: a small, fully associative store of whole DRAM rows (16 entries of
// 1 KB in the default configuration) kept in the vault controller's logic
// base.
//
// The buffer tracks, for every resident row, which distinct cache lines
// have been referenced (the row's *utilization*) and an exact LRU ordering
// expressed as the paper's *recency counters*: the most recently used row
// holds the value n-1 and the least recently used row holds 0, with the
// counters of all valid entries forming a permutation of 0..n-1 at all
// times.
//
// Two replacement policies are provided: classic LRU (used by the BASE,
// BASE-HIT and MMD schemes) and the paper's utilization+recency policy
// (CAMPS-MOD): evict a fully consumed row first; otherwise evict the row
// with the minimum utilization+recency sum, breaking ties toward lower
// utilization.
//
// Every demand searches the buffer and every hit or eviction renumbers
// the recency counters, so each slot's row id and counter are kept apart
// from the rest of its state, in one packed array (24 bytes a slot rather
// than the whole entry). A negative counter marks a free slot, so
// searches, renumbering and the LRU scan read that array alone.
package pfbuffer

import (
	"fmt"
	"math"
	"math/bits"

	"camps/internal/obs"
	"camps/internal/sim"
	"camps/internal/stats"
)

// RowID identifies a DRAM row within one vault.
type RowID struct {
	Bank int
	Row  int64
}

// String renders the row id.
func (r RowID) String() string { return fmt.Sprintf("b%d/r%d", r.Bank, r.Row) }

// Policy selects the replacement policy.
type Policy int

const (
	// LRU evicts the least recently used row.
	LRU Policy = iota
	// UtilRecency is the CAMPS-MOD policy described in §3.2 of the paper.
	UtilRecency
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case UtilRecency:
		return "UtilRecency"
	}
	return "unknown"
}

// Eviction describes a row leaving the buffer so the vault controller can
// account for it (dirty rows are written back to the bank).
type Eviction struct {
	ID    RowID
	Dirty bool
	Used  bool // at least one demand reference while resident
	Util  int  // distinct lines referenced while resident
	Late  bool // a demand for the row was already queued when it landed
}

// Stats aggregates buffer behaviour for the accuracy figures.
type Stats struct {
	Hits          uint64 // demand references served by the buffer
	Misses        uint64 // demand references not present
	Inserts       uint64 // rows prefetched into the buffer
	Evictions     uint64
	UsedRows      uint64 // inserted rows referenced at least once (final)
	LinesUseful   uint64 // distinct lines referenced across inserted rows
	DirtyEvicts   uint64
	FullRowEvicts uint64 // evictions of fully consumed rows (CAMPS-MOD fast path)

	// Fault-poisoned fetches discarded before insertion. They never
	// became resident, so they appear in neither Inserts nor the
	// accuracy ratios below — the bank work was spent, but charging them
	// against line accuracy would misstate the prefetch policy's skill.
	RowsPoisoned  uint64
	LinesPoisoned uint64 // RowsPoisoned * linesPerRow

	// FirstUseDelay measures prefetch timeliness (§2.3 of the paper): the
	// time between a row's insertion and its first demand hit, in
	// picoseconds. Too-early prefetches also show up as unused evictions
	// (Inserts - UsedRows).
	FirstUseDelay stats.LatencyAccum
}

// RowAccuracy returns the fraction of prefetched rows that were referenced.
func (s Stats) RowAccuracy() float64 {
	if s.Inserts == 0 {
		return 0
	}
	return float64(s.UsedRows) / float64(s.Inserts)
}

// LineAccuracy returns the fraction of prefetched lines that were
// referenced, given lines per row. Poisoned fetches are excluded from
// the denominator by construction: they are counted in LinesPoisoned,
// never in Inserts.
func (s Stats) LineAccuracy(linesPerRow int) float64 {
	if s.Inserts == 0 || linesPerRow == 0 {
		return 0
	}
	return float64(s.LinesUseful) / float64(s.Inserts*uint64(linesPerRow))
}

// tag is the searched part of a slot: its row and recency counter.
type tag struct {
	id      RowID
	recency int // permutation rank among valid slots, MRU = nValid-1; free < 0
}

// free is the recency counter of a slot that holds no row.
const free = -1

// entry is the rest of a valid slot's state.
type entry struct {
	dirty    bool
	used     bool
	late     bool   // a demand was already queued when the row landed
	touched  uint64 // bitmap of referenced lines (linesPerRow <= 64)
	insertAt sim.Time
}

func (e *entry) util() int { return bits.OnesCount64(e.touched) }

// Buffer is one vault's prefetch buffer.
type Buffer struct {
	tags        []tag   // per slot; tags[i].recency < 0 marks a free slot
	entries     []entry // per slot; meaningful while the slot is valid
	linesPerRow int
	policy      Policy
	nValid      int
	stats       Stats
}

// New returns an empty buffer with the given entry count, lines per row and
// replacement policy.
func New(entries, linesPerRow int, policy Policy) *Buffer {
	if entries <= 0 {
		panic("pfbuffer: need at least one entry")
	}
	if linesPerRow <= 0 || linesPerRow > 64 {
		panic("pfbuffer: linesPerRow must be in 1..64")
	}
	tags := make([]tag, entries)
	for i := range tags {
		tags[i].recency = free
	}
	return &Buffer{
		tags:        tags,
		entries:     make([]entry, entries),
		linesPerRow: linesPerRow,
		policy:      policy,
	}
}

// Stats returns a copy of the accumulated statistics. Call Flush first for
// end-of-simulation accuracy accounting.
func (b *Buffer) Stats() Stats { return b.stats }

// Instrument registers the buffer's counters with the observability
// registry under the pfbuffer.* namespace. Registration is additive: all
// of a cube's buffers register the same names and snapshots report the
// aggregate (see obs.Registry.CounterFunc).
func (b *Buffer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("pfbuffer.hits", func() uint64 { return b.stats.Hits })
	reg.CounterFunc("pfbuffer.misses", func() uint64 { return b.stats.Misses })
	reg.CounterFunc("pfbuffer.inserts", func() uint64 { return b.stats.Inserts })
	reg.CounterFunc("pfbuffer.evictions", func() uint64 { return b.stats.Evictions })
	reg.CounterFunc("pfbuffer.used_rows", func() uint64 { return b.stats.UsedRows })
	reg.CounterFunc("pfbuffer.lines_useful", func() uint64 { return b.stats.LinesUseful })
	reg.CounterFunc("pfbuffer.dirty_evicts", func() uint64 { return b.stats.DirtyEvicts })
	reg.CounterFunc("pfbuffer.full_row_evicts", func() uint64 { return b.stats.FullRowEvicts })
	reg.CounterFunc("pfbuffer.rows_poisoned", func() uint64 { return b.stats.RowsPoisoned })
	reg.CounterFunc("pfbuffer.lines_poisoned", func() uint64 { return b.stats.LinesPoisoned })
	reg.GaugeFunc("pfbuffer.occupancy", func() float64 { return float64(b.nValid) })
}

// MarkLate flags a resident row as having lost the race to a queued
// demand request: its eviction record reports Late.
func (b *Buffer) MarkLate(id RowID) {
	if i := b.find(id); i >= 0 {
		b.entries[i].late = true
	}
}

// NotePoisoned accounts a fault-poisoned fetch that was discarded before
// insertion (see Stats.RowsPoisoned).
func (b *Buffer) NotePoisoned() {
	b.stats.RowsPoisoned++
	b.stats.LinesPoisoned += uint64(b.linesPerRow)
}

// Contains reports whether the row is resident, without touching any
// replacement state.
func (b *Buffer) Contains(id RowID) bool { return b.find(id) >= 0 }

func (b *Buffer) find(id RowID) int {
	for i, t := range b.tags {
		if t.id == id && t.recency >= 0 {
			return i
		}
	}
	return -1
}

// Lookup serves a demand reference for one line of a row. On a hit it
// updates the line bitmap, the recency ordering and (for writes) the dirty
// bit, and returns true. On a miss it only counts the miss.
func (b *Buffer) Lookup(id RowID, line int, write bool, now sim.Time) bool {
	if line < 0 || line >= b.linesPerRow {
		panic(fmt.Sprintf("pfbuffer: line %d out of range [0,%d)", line, b.linesPerRow))
	}
	i := b.find(id)
	if i < 0 {
		b.stats.Misses++
		return false
	}
	e := &b.entries[i]
	bit := uint64(1) << uint(line)
	if e.touched&bit == 0 {
		e.touched |= bit
		b.stats.LinesUseful++
	}
	if !e.used {
		e.used = true
		b.stats.UsedRows++
		b.stats.FirstUseDelay.Observe(float64(now - e.insertAt))
	}
	if write {
		e.dirty = true
	}
	b.promote(i)
	b.stats.Hits++
	return true
}

// promote implements the paper's recency counters: the accessed row takes
// the maximum value (entries-1, i.e. 15 in the default configuration) and
// every row whose counter exceeded the accessed row's old value
// decrements. With a full buffer the counters form a permutation of
// 0..n-1, exactly as §3.2 describes (MRU = 15, LRU = 0); an evicted row's
// rank is inherited by its replacement, which keeps the permutation
// closed.
func (b *Buffer) promote(i int) {
	b.demote(b.tags[i].recency)
	b.tags[i].recency = b.nValid - 1
}

// demote closes the gap a counter leaves: every counter above old drops
// by one. Free slots' counters are negative, so they never move.
func (b *Buffer) demote(old int) {
	for j := range b.tags {
		r := b.tags[j].recency
		if r > old {
			r--
		}
		b.tags[j].recency = r
	}
}

// Insert places a freshly prefetched row into the buffer as the MRU entry.
// alreadyTouched is the bitmap of lines that were already referenced from
// the DRAM row buffer before the copy (the trigger accesses): the paper
// defines a row's utilization as the distinct lines referenced within it,
// so those lines count toward replacement decisions — but not toward
// prefetch-usefulness statistics, since the buffer never served them.
// If the row is already resident the call is a no-op (no eviction, no
// insert counted). If the buffer is full the policy chooses a victim,
// which is returned (second result true) so the caller can write back
// dirty data. The eviction record is a value: the insert path allocates
// nothing.
func (b *Buffer) Insert(id RowID, alreadyTouched uint64, now sim.Time) (Eviction, bool) {
	if b.find(id) >= 0 {
		return Eviction{}, false
	}
	if b.linesPerRow < 64 {
		alreadyTouched &= 1<<uint(b.linesPerRow) - 1
	}
	var ev Eviction
	evicted := false
	slot := b.rank(free)
	if slot < 0 {
		slot = b.victim()
		ev = b.evict(slot)
		evicted = true
	}
	b.tags[slot] = tag{id: id, recency: b.nValid}
	b.entries[slot] = entry{touched: alreadyTouched, insertAt: now}
	b.nValid++
	b.stats.Inserts++
	return ev, evicted
}

// rank returns the first slot whose recency counter is r (a free slot for
// r = free), or -1.
func (b *Buffer) rank(r int) int {
	for i, t := range b.tags {
		if t.recency == r {
			return i
		}
	}
	return -1
}

// victim selects the replacement index per the active policy. The buffer
// must be full.
func (b *Buffer) victim() int {
	if b.policy == UtilRecency {
		// First preference: the least recent fully consumed row; all of
		// its data has already been transferred to the processor.
		// Otherwise: minimum utilization+recency, ties toward lower
		// utilization (then toward lower recency, which a tie in both
		// already fixes). Each is the minimum of one key per slot, the
		// slot index in the low bits; counters are distinct, so each
		// minimum is unique. util <= 64 fits in 7 bits.
		shift := uint(bits.Len(uint(len(b.tags))))
		full, best := math.MaxInt, math.MaxInt
		for i, t := range b.tags {
			u, r := b.entries[i].util(), t.recency
			best = min(best, ((u+r)<<7|u)<<shift|i)
			f := r<<shift | i
			if u != b.linesPerRow {
				f = math.MaxInt
			}
			full = min(full, f)
		}
		if full != math.MaxInt {
			b.stats.FullRowEvicts++
			best = full
		}
		return best & (1<<shift - 1)
	}
	// LRU: recency 0 is the least recently used by construction.
	if i := b.rank(0); i >= 0 {
		return i
	}
	panic("pfbuffer: full buffer without an LRU entry")
}

// evict removes entry i and returns its eviction record, repairing the
// recency permutation of the remaining entries (equivalently: the next
// insert inherits the victim's rank before being promoted to MRU).
func (b *Buffer) evict(i int) Eviction {
	t, e := &b.tags[i], &b.entries[i]
	if t.recency < 0 {
		panic("pfbuffer: evicting invalid entry")
	}
	ev := Eviction{ID: t.id, Dirty: e.dirty, Used: e.used, Util: e.util(), Late: e.late}
	old := t.recency
	t.recency = free
	b.demote(old)
	b.nValid--
	b.stats.Evictions++
	if ev.Dirty {
		b.stats.DirtyEvicts++
	}
	return ev
}

// Flush evicts every resident row (in recency order, LRU first) and
// returns their eviction records; call at end of simulation so writeback
// traffic and accuracy accounting include resident rows.
func (b *Buffer) Flush() []Eviction {
	evs := make([]Eviction, 0, b.nValid)
	for b.nValid > 0 {
		idx := b.rank(0)
		if idx < 0 {
			panic("pfbuffer: valid entries without recency 0")
		}
		evs = append(evs, b.evict(idx))
	}
	return evs
}

// CheckInvariant validates the buffer's structural invariants: occupancy
// within capacity, the valid-entry count matching nValid, every touched
// bitmap within the lines-per-row mask, and the recency counters of valid
// entries forming a permutation of 0..nValid-1 (§3.2). It is read-only
// and is wired into the simulator's epoch invariant checker.
func (b *Buffer) CheckInvariant() error {
	if b.nValid < 0 || b.nValid > len(b.entries) {
		return fmt.Errorf("pfbuffer: occupancy %d outside [0,%d]", b.nValid, len(b.entries))
	}
	mask := ^uint64(0)
	if b.linesPerRow < 64 {
		mask = 1<<uint(b.linesPerRow) - 1
	}
	valid := 0
	seen := make([]bool, len(b.entries))
	for i, t := range b.tags {
		if t.recency == free {
			continue
		}
		valid++
		if e := &b.entries[i]; e.touched&^mask != 0 {
			return fmt.Errorf("pfbuffer: entry %s touched bitmap %#x exceeds %d lines",
				t.id, e.touched, b.linesPerRow)
		}
		if t.recency < 0 || t.recency >= b.nValid || seen[t.recency] {
			return fmt.Errorf("pfbuffer: recency counters are not a permutation of 0..%d (entry %s has %d)",
				b.nValid-1, t.id, t.recency)
		}
		seen[t.recency] = true
	}
	if valid != b.nValid {
		return fmt.Errorf("pfbuffer: %d valid entries but occupancy count %d", valid, b.nValid)
	}
	return nil
}
