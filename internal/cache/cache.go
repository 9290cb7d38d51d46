// Package cache implements the three-level cache hierarchy of Table I:
// private L1 and L2 per core and one shared L3, all with 64-byte lines,
// true-LRU set associativity, and write-back/write-allocate semantics.
//
// Each way is one 32-bit word, tag<<11 | stamp<<3 | state: a
// config.CacheTagBits-wide tag, the way's one-byte recency stamp, and the
// valid, dirty and prefetched bits. A tag check is one masked compare per
// way, and a 16-way set is one 64-byte host cache line. The narrow tag
// bounds the addresses a level can hold to 1 << (CacheTagBits +
// log2(sets) + log2(line bytes)); Hierarchy.Access panics on an address
// at or above the smallest level's bound (AddressLimit), so no address
// aliases another, and camps rejects such input with a typed error before
// it gets here.
//
// LRU order is kept as the recency stamps: each set has a one-byte clock,
// and touching a line gives it the clock's next value, so the valid line
// with the smallest stamp is exactly the least recently used. When a
// set's clock would wrap, the set is renumbered in recency order.
//
// One routine searches a set: a probe returns the hit way, or on a miss the
// fill target (the first free way, else the LRU way), and changes
// nothing. An access probes each level once and fills the remembered
// targets on the way back; nothing touches a level between its probe and
// its fill, so the targets are still the ones a fresh scan would pick.
//
// The caches are functional models with timing metadata: an access
// resolves, in zero simulated time, to the level that services it plus the
// cumulative lookup latency; misses past L3 and dirty L3 evictions are the
// traffic that reaches the HMC.
package cache

import (
	"fmt"
	"math/bits"

	"camps/internal/config"
	"camps/internal/obs"
	"camps/internal/stats"
)

// Level is one set-associative cache.
type Level struct {
	ways      int
	lineShift uint
	setShift  uint // log2(sets): a line address's set bits
	setMask   uint64
	lines     []uint32 // sets*ways words of tag<<tagShift | stamp<<stBits | state
	clock     []uint8  // per set: the last stamp issued
	hitLat    int64

	hits   stats.Counter
	misses stats.Counter
	evicts stats.Counter
	wbacks stats.Counter

	prefInstalled stats.Counter
	prefUseful    stats.Counter
}

// A line word: state in the low stBits bits, the recency stamp (larger =
// more recent) in the next 8, the tag above.
const (
	stValid uint32 = 1 << 0
	stDirty uint32 = 1 << 1
	stPref  uint32 = 1 << 2 // installed by a core-side prefetch, unused yet
	stBits         = 3

	stampMask uint32 = 0xff << stBits
	tagShift         = stBits + 8
)

// The tag fills the rest of the 32-bit word exactly.
var _ [32]struct{} = [tagShift + config.CacheTagBits]struct{}{}

// levelOf returns a level of cfg's geometry and latency, without its line
// and clock arrays.
func levelOf(cfg config.CacheLevel) Level {
	sets := int(cfg.SizeBytes) / cfg.Ways / cfg.LineBytes
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a positive power of two", sets))
	}
	if cfg.Ways > config.MaxCacheWays {
		panic(fmt.Sprintf("cache: %d ways exceed the %d that recency stamps can rank", cfg.Ways, config.MaxCacheWays))
	}
	if cfg.LineBytes < config.MinCacheLineBytes {
		panic(fmt.Sprintf("%v: %d-byte lines, at least %d", config.ErrCacheLine, cfg.LineBytes, config.MinCacheLineBytes))
	}
	return Level{
		ways:      cfg.Ways,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
		setShift:  uint(bits.TrailingZeros64(uint64(sets))),
		setMask:   uint64(sets - 1),
		hitLat:    cfg.HitLatency,
	}
}

// sameGeometry reports whether l and m have the same ways, sets and line
// size, the geometry that fixes a level's memory layout.
func (l *Level) sameGeometry(m *Level) bool {
	return l.ways == m.ways && l.setShift == m.setShift && l.lineShift == m.lineShift
}

// emptyIn returns l, a level from levelOf, empty: in into's line and clock
// arrays, cleared, when into is non-nil, which must have l's geometry,
// else in new ones.
func (l Level) emptyIn(into *Level) *Level {
	if into == nil {
		l.lines = make([]uint32, l.ways<<l.setShift)
		l.clock = make([]uint8, 1<<l.setShift)
		return &l
	}
	l.lines, l.clock = into.lines, into.clock
	clear(l.lines)
	clear(l.clock)
	*into = l
	return into
}

// clone returns a deep copy of l, its lines, set clocks and counters, in
// into's memory when into is non-nil, which must have l's geometry, else
// newly allocated.
func (l *Level) clone(into *Level) *Level {
	if into == nil {
		into = &Level{lines: make([]uint32, len(l.lines)), clock: make([]uint8, len(l.clock))}
	}
	lines, clock := into.lines, into.clock
	*into = *l
	into.lines, into.clock = lines, clock
	copy(lines, l.lines)
	copy(clock, l.clock)
	return into
}

// HitLatency returns the level's lookup latency in CPU cycles.
func (l *Level) HitLatency() int64 { return l.hitLat }

// Hits returns the hit count.
func (l *Level) Hits() uint64 { return l.hits.Value() }

// Misses returns the miss count.
func (l *Level) Misses() uint64 { return l.misses.Value() }

// index splits addr into its set and tag. The tag keeps its low
// CacheTagBits bits, all of them below the hierarchy's address limit.
func (l *Level) index(addr uint64) (set int, lineTag uint32) {
	line := addr >> l.lineShift
	return int(line & l.setMask), uint32(line >> l.setShift)
}

// slot is a probe's outcome: addr's set and tag, and a line index — the
// hit line, or on a miss the way a fill of addr takes.
type slot struct {
	set int
	tag uint32
	i   int
}

// probe scans addr's set once. On a hit it returns the line holding addr.
// On a miss it returns the fill target: the first free way, else the LRU
// way. The target is the minimum of one key per way, a free way's key
// being its index and a valid way's (stamp+1)<<8 | way, so every free way
// ranks below every valid one and valid ways rank by stamp (distinct
// within a set), then index; with at most MaxCacheWays = 256 ways, the
// index fits the low byte. A probe changes nothing, so a fill at its
// target is exact as long as nothing touches the level in between.
func (l *Level) probe(addr uint64) (s slot, hit bool) {
	s.set, s.tag = l.index(addr)
	want := s.tag<<tagShift | stValid
	base := s.set * l.ways
	words := l.lines[base : base+l.ways]
	target := ^uint32(0)
	for w, word := range words {
		if word&^(stampMask|stDirty|stPref) == want {
			s.i = base + w
			return s, true
		}
		// (stamp+1)<<8 is (the stamp field + 1<<stBits) << (8-stBits);
		// valid is 0 for a free way, leaving its index.
		valid := word & stValid
		target = min(target, (word&stampMask+1<<stBits)<<(8-stBits)*valid|uint32(w))
	}
	s.i = base + int(target&0xff)
	return s, false
}

// demand is a demand lookup that keeps its probe: a hit refreshes LRU,
// sets the dirty bit for writes and counts prefetch usefulness; a miss
// leaves s.i at the fill target.
func (l *Level) demand(addr uint64, write bool) (s slot, hit bool) {
	s, hit = l.probe(addr)
	if !hit {
		l.misses.Inc()
		return s, false
	}
	w := l.lines[s.i]
	if write {
		w |= stDirty
	}
	if w&stPref != 0 {
		w &^= stPref
		l.prefUseful.Inc()
	}
	l.lines[s.i] = w
	l.touch(s.set, s.i)
	l.hits.Inc()
	return s, true
}

// Contains probes without disturbing LRU or statistics.
func (l *Level) Contains(addr uint64) bool {
	_, hit := l.probe(addr)
	return hit
}

// Victim describes a line displaced by a fill: its address and whether a
// writeback must carry it down. A put that displaces nothing returns the
// zero Victim, and only the level's eviction counter moves on a clean
// victim, so callers act on Dirty alone.
type Victim struct {
	Addr  uint64
	Dirty bool
}

// installPrefetched installs a line brought in by a core-side prefetcher;
// its first demand hit counts toward prefetch usefulness.
func (l *Level) installPrefetched(addr uint64) Victim {
	l.prefInstalled.Inc()
	return l.put(addr, false, true)
}

// put places addr into its set as MRU, returning the displaced line: a
// present line is refreshed (a prefetch overlay never downgrades its
// state), an absent one filled at the probe's target.
func (l *Level) put(addr uint64, dirty, prefetched bool) Victim {
	s, hit := l.probe(addr)
	if !hit {
		return l.fill(s, dirty, prefetched)
	}
	if dirty {
		l.lines[s.i] |= stDirty
	}
	l.touch(s.set, s.i)
	return Victim{}
}

// absorb takes a dirty line written back from the level above: a demand
// write, filled on a miss. It returns the line the fill displaced.
func (l *Level) absorb(addr uint64) Victim {
	if s, hit := l.demand(addr, true); !hit {
		return l.fill(s, true, false)
	}
	return Victim{}
}

// fill writes s.tag into line s.i, a probe's miss target, as the set's
// MRU line, returning the valid line it displaced.
func (l *Level) fill(s slot, dirty, prefetched bool) Victim {
	var victim Victim
	if old := l.lines[s.i]; old&stValid != 0 {
		victim = Victim{
			Addr:  l.reconstruct(s.set, old>>tagShift),
			Dirty: old&stDirty != 0,
		}
		l.evicts.Inc()
		if victim.Dirty {
			l.wbacks.Inc()
		}
	}
	w := s.tag<<tagShift | stValid
	if dirty {
		w |= stDirty
	}
	if prefetched {
		w |= stPref
	}
	l.lines[s.i] = w
	l.touch(s.set, s.i)
	return victim
}

// reconstruct rebuilds a line's base address from set and tag.
func (l *Level) reconstruct(set int, tag uint32) uint64 {
	return (uint64(tag)<<l.setShift | uint64(set)) << l.lineShift
}

// setStamp replaces line i's recency stamp with stamp.
func (l *Level) setStamp(i int, stamp uint8) {
	l.lines[i] = l.lines[i]&^stampMask | uint32(stamp)<<stBits
}

// touch makes line i (an index into set's ways) the set's MRU entry.
func (l *Level) touch(set, i int) {
	next := l.clock[set] + 1
	if next == 0 {
		next = l.renumber(set, i)
	}
	l.clock[set] = next
	l.setStamp(i, next)
}

// renumber restamps the valid lines of set other than line i as 0..n-1 in
// recency order and returns n, the stamp that makes line i the MRU. Valid
// stamps in a set are distinct (each touch issues one above all others),
// so indexing lines by stamp sorts them. n <= ways-1 < 256.
func (l *Level) renumber(set, skip int) uint8 {
	var byStamp [256]uint16 // line offset within the set + 1; 0 = none
	base := set * l.ways
	for i := base; i < base+l.ways; i++ {
		if w := l.lines[i]; i != skip && w&stValid != 0 {
			byStamp[uint8(w>>stBits)] = uint16(i - base + 1)
		}
	}
	n := uint8(0)
	for _, w := range byStamp {
		if w != 0 {
			l.setStamp(base+int(w)-1, n)
			n++
		}
	}
	return n
}

// AddressLimit returns the first address the cache hierarchy of a valid
// cfg cannot tag: the smallest of its levels' limits, 1 << (CacheTagBits +
// log2(sets) + log2(line bytes)) each (see config.CacheTagBits), at most
// ^uint64(0).
func AddressLimit(cfg config.Config) uint64 {
	limit := ^uint64(0)
	for _, l := range []config.CacheLevel{cfg.L1, cfg.L2, cfg.L3} {
		sets := l.SizeBytes / int64(l.Ways) / int64(l.LineBytes)
		shift := config.CacheTagBits + bits.TrailingZeros64(uint64(sets)) + bits.TrailingZeros64(uint64(l.LineBytes))
		if shift < 64 {
			limit = min(limit, 1<<shift)
		}
	}
	return limit
}

// Hierarchy is the full per-chip cache stack.
type Hierarchy struct {
	l1, l2 []*Level
	l3     *Level
	limit  uint64 // AddressLimit(cfg): the first address a level cannot tag

	l3MissPerCore []stats.Counter

	// wbBuf backs Result.Writebacks. One access surfaces at most three
	// dirty victims: the L3 install, the L2→L3 cascade and the
	// L1→L2→L3 cascade.
	wbBuf [3]uint64
}

// NewHierarchy builds the stack for cfg.Processor.Cores cores.
func NewHierarchy(cfg config.Config) *Hierarchy {
	return (*Hierarchy)(nil).Reset(cfg)
}

// spare returns h when it has cores cores, each with an L1 and an L2 of
// the geometry of l1 and l2, and an L3 of l3's, so its memory can be
// reused for a hierarchy of that shape. Otherwise, or when h is nil, it
// returns a new hierarchy of cores cores with no levels yet.
func (h *Hierarchy) spare(cores int, l1, l2, l3 *Level) *Hierarchy {
	fits := h != nil && len(h.l1) == cores && h.l3.sameGeometry(l3)
	for i := 0; fits && i < cores; i++ {
		fits = h.l1[i].sameGeometry(l1) && h.l2[i].sameGeometry(l2)
	}
	if fits {
		return h
	}
	return &Hierarchy{
		l1:            make([]*Level, cores),
		l2:            make([]*Level, cores),
		l3MissPerCore: make([]stats.Counter, cores),
	}
}

// Reset returns an empty hierarchy for cfg, as NewHierarchy builds it: in
// h's memory when h has cfg's core count and L1, L2 and L3 geometry, else
// newly allocated. h may be nil; its contents are lost either way.
func (h *Hierarchy) Reset(cfg config.Config) *Hierarchy {
	l1, l2, l3 := levelOf(cfg.L1), levelOf(cfg.L2), levelOf(cfg.L3)
	h = h.spare(cfg.Processor.Cores, &l1, &l2, &l3)
	h.l3 = l3.emptyIn(h.l3)
	for i := range h.l1 {
		h.l1[i] = l1.emptyIn(h.l1[i])
		h.l2[i] = l2.emptyIn(h.l2[i])
	}
	clear(h.l3MissPerCore)
	h.limit = AddressLimit(cfg)
	return h
}

// Clone returns a deep copy of h: every level's contents, LRU order and
// counters, so the copy continues exactly as h would. It is made in into's
// memory when into has h's core count and level geometry, else newly
// allocated; into may be nil, and its contents are lost either way.
// Nothing is shared with h, and no observability registration carries
// over.
func (h *Hierarchy) Clone(into *Hierarchy) *Hierarchy {
	var l1, l2 *Level // every core's private levels share one geometry
	if len(h.l1) > 0 {
		l1, l2 = h.l1[0], h.l2[0]
	}
	cp := into.spare(len(h.l1), l1, l2, h.l3)
	cp.l3 = h.l3.clone(cp.l3)
	for i := range h.l1 {
		cp.l1[i] = h.l1[i].clone(cp.l1[i])
		cp.l2[i] = h.l2[i].clone(cp.l2[i])
	}
	copy(cp.l3MissPerCore, h.l3MissPerCore)
	cp.limit = h.limit
	return cp
}

// Instrument registers the hierarchy's counters with the observability
// registry under the cache.* namespace (private levels are aggregated
// across cores at snapshot time): hits, misses, evictions of valid lines
// and the dirty ones among them, and for L2 and L3, the two levels the
// core-side prefetcher fills, prefetched lines installed and those a
// demand access later hit.
func (h *Hierarchy) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, l := range h.l1 {
		reg.CounterFunc("cache.l1_hits", l.hits.Value)
		reg.CounterFunc("cache.l1_misses", l.misses.Value)
		reg.CounterFunc("cache.l1_evictions", l.evicts.Value)
		reg.CounterFunc("cache.l1_writebacks", l.wbacks.Value)
	}
	for _, l := range h.l2 {
		reg.CounterFunc("cache.l2_hits", l.hits.Value)
		reg.CounterFunc("cache.l2_misses", l.misses.Value)
		reg.CounterFunc("cache.l2_evictions", l.evicts.Value)
		reg.CounterFunc("cache.l2_writebacks", l.wbacks.Value)
		reg.CounterFunc("cache.l2_prefetch_installs", l.prefInstalled.Value)
		reg.CounterFunc("cache.l2_prefetch_useful", l.prefUseful.Value)
	}
	reg.CounterFunc("cache.l3_hits", h.l3.hits.Value)
	reg.CounterFunc("cache.l3_misses", h.l3.misses.Value)
	reg.CounterFunc("cache.l3_evictions", h.l3.evicts.Value)
	reg.CounterFunc("cache.l3_writebacks", h.l3.wbacks.Value)
	reg.CounterFunc("cache.l3_prefetch_installs", h.l3.prefInstalled.Value)
	reg.CounterFunc("cache.l3_prefetch_useful", h.l3.prefUseful.Value)
}

// Result describes how an access resolved.
type Result struct {
	// Level that serviced the access: 1..3, or 4 for main memory.
	Level int
	// Latency is the cumulative lookup latency in CPU cycles, excluding
	// main-memory time (added by the caller for Level 4).
	Latency int64
	// Writebacks lists dirty L3 victims that must be written to memory.
	// It is borrowed from the Hierarchy and valid only until the next
	// Access; nil when there are none.
	Writebacks []uint64
}

// Access performs one data reference for core. Misses install the line in
// every level on the path; dirty victims cascade downward, and dirty L3
// victims surface as memory writebacks.
//
// Each level is probed once: a miss remembers its fill target, and the
// fills on the way back use it. That is exact because nothing touches a
// level between its probe and its fill (a cascade writes only into the
// levels below the one it leaves).
//
// An address at or above the hierarchy's AddressLimit panics rather than
// alias another line.
func (h *Hierarchy) Access(core int, addr uint64, write bool) Result {
	if core < 0 || core >= len(h.l1) {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	if addr >= h.limit {
		panic(fmt.Sprintf("cache: address %#x at or above the %#x tag limit", addr, h.limit))
	}
	l1, l2, l3 := h.l1[core], h.l2[core], h.l3
	res := Result{Level: 1, Latency: l1.hitLat}
	s1, hit := l1.demand(addr, write)
	if hit {
		return res
	}
	res.Level, res.Latency = 2, res.Latency+l2.hitLat
	if s2, hit := l2.demand(addr, false); !hit {
		res.Level, res.Latency = 3, res.Latency+l3.hitLat
		if s3, hit := l3.demand(addr, false); !hit {
			// Miss to memory: install everywhere on the way back.
			res.Level = 4
			h.l3MissPerCore[core].Inc()
			if v := l3.fill(s3, false, false); v.Dirty {
				h.writeback(&res, v.Addr)
			}
		}
		if v := l2.fill(s2, false, false); v.Dirty {
			h.spill(&res, l3, nil, v.Addr)
		}
	}
	if v := l1.fill(s1, write, false); v.Dirty {
		h.spill(&res, l2, l3, v.Addr)
	}
	return res
}

// spill writes a dirty victim into lvl; a dirty line that displaces in
// turn goes to next, or to memory when next is nil.
func (h *Hierarchy) spill(res *Result, lvl, next *Level, addr uint64) {
	v := lvl.absorb(addr)
	switch {
	case !v.Dirty:
	case next != nil:
		h.spill(res, next, nil, v.Addr)
	default:
		h.writeback(res, v.Addr)
	}
}

// writeback appends a dirty L3 victim to res, in the hierarchy's buffer.
func (h *Hierarchy) writeback(res *Result, addr uint64) {
	if res.Writebacks == nil {
		res.Writebacks = h.wbBuf[:0]
	}
	res.Writebacks = append(res.Writebacks, addr)
}

// InstallPrefetched installs a line fetched by core's L2 prefetcher into
// its L2 and the shared L3, returning dirty L3 victims that must be
// written to memory, borrowed as Result.Writebacks is: valid until the
// next Access or InstallPrefetched, nil when there are none. It is the
// fill path of the core-side prefetching ablation; the installed lines
// count toward prefetch usefulness on their first demand hit. Its
// addresses come from a StrideDetector, which predicts only below
// AddressLimit.
func (h *Hierarchy) InstallPrefetched(core int, addr uint64) []uint64 {
	var res Result
	if v := h.l3.installPrefetched(addr); v.Dirty {
		h.writeback(&res, v.Addr)
	}
	if v := h.l2[core].installPrefetched(addr); v.Dirty {
		h.spill(&res, h.l3, nil, v.Addr)
	}
	return res.Writebacks
}

// L1 returns core's L1 (for tests).
func (h *Hierarchy) L1(core int) *Level { return h.l1[core] }

// L2 returns core's L2 (for tests).
func (h *Hierarchy) L2(core int) *Level { return h.l2[core] }

// L3 returns the shared L3.
func (h *Hierarchy) L3() *Level { return h.l3 }

// L3Misses returns core's L3 miss count (the MPKI numerator).
func (h *Hierarchy) L3Misses(core int) uint64 { return h.l3MissPerCore[core].Value() }
