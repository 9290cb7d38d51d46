// Package cache implements the three-level cache hierarchy of Table I:
// private L1 and L2 per core and one shared L3, all with 64-byte lines,
// true-LRU set associativity, and write-back/write-allocate semantics.
//
// LRU order is kept as one-byte recency stamps: each set has a one-byte
// clock, and touching a line gives it the clock's next value, so the
// valid line with the smallest stamp is exactly the least recently used.
// When a set's clock would wrap, the set is renumbered in recency order.
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
	sets      int
	ways      int
	lineShift uint
	setMask   uint64
	tags      []uint64 // sets*ways
	state     []uint8  // bit0 valid, bit1 dirty
	stamp     []uint8  // recency stamp per line; larger = more recent
	clock     []uint8  // per set: the last stamp issued
	hitLat    int64

	hits   stats.Counter
	misses stats.Counter
	evicts stats.Counter
	wbacks stats.Counter

	prefInstalled stats.Counter
	prefUseful    stats.Counter
}

const (
	stValid uint8 = 1 << 0
	stDirty uint8 = 1 << 1
	stPref  uint8 = 1 << 2 // installed by a core-side prefetch, unused yet
)

// NewLevel builds a cache level from its configuration.
func NewLevel(cfg config.CacheLevel) *Level {
	sets := int(cfg.SizeBytes) / cfg.Ways / cfg.LineBytes
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a positive power of two", sets))
	}
	if cfg.Ways > config.MaxCacheWays {
		panic(fmt.Sprintf("cache: %d ways exceed the %d that recency stamps can rank", cfg.Ways, config.MaxCacheWays))
	}
	n := sets * cfg.Ways
	// state, stamp and clock share one allocation: one fewer per level
	// than the rank-based LRU it replaced.
	b := make([]uint8, 2*n+sets)
	return &Level{
		sets:      sets,
		ways:      cfg.Ways,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, n),
		state:     b[:n:n],
		stamp:     b[n : 2*n : 2*n],
		clock:     b[2*n:],
		hitLat:    cfg.HitLatency,
	}
}

// clone returns a deep copy of l: its lines, recency stamps and counters.
func (l *Level) clone() *Level {
	cp := *l
	n := len(l.tags)
	b := make([]uint8, 2*n+l.sets)
	copy(b, l.state)
	copy(b[n:], l.stamp)
	copy(b[2*n:], l.clock)
	cp.tags = append([]uint64(nil), l.tags...)
	cp.state, cp.stamp, cp.clock = b[:n:n], b[n:2*n:2*n], b[2*n:]
	return &cp
}

// HitLatency returns the level's lookup latency in CPU cycles.
func (l *Level) HitLatency() int64 { return l.hitLat }

// Sets returns the number of sets.
func (l *Level) Sets() int { return l.sets }

// Hits returns the hit count.
func (l *Level) Hits() uint64 { return l.hits.Value() }

// Misses returns the miss count.
func (l *Level) Misses() uint64 { return l.misses.Value() }

// Writebacks returns the number of dirty lines evicted.
func (l *Level) Writebacks() uint64 { return l.wbacks.Value() }

func (l *Level) index(addr uint64) (set int, lineTag uint64) {
	line := addr >> l.lineShift
	return int(line & l.setMask), line >> uint(bits.TrailingZeros64(uint64(l.sets)))
}

// Lookup probes for addr; on a hit it refreshes LRU and, for writes, sets
// the dirty bit.
func (l *Level) Lookup(addr uint64, write bool) bool {
	set, tag := l.index(addr)
	base := set * l.ways
	for w := 0; w < l.ways; w++ {
		i := base + w
		if l.state[i]&stValid != 0 && l.tags[i] == tag {
			l.touch(set, i)
			if write {
				l.state[i] |= stDirty
			}
			if l.state[i]&stPref != 0 {
				l.state[i] &^= stPref
				l.prefUseful.Inc()
			}
			l.hits.Inc()
			return true
		}
	}
	l.misses.Inc()
	return false
}

// Contains probes without disturbing LRU or statistics.
func (l *Level) Contains(addr uint64) bool {
	set, tag := l.index(addr)
	base := set * l.ways
	for w := 0; w < l.ways; w++ {
		i := base + w
		if l.state[i]&stValid != 0 && l.tags[i] == tag {
			return true
		}
	}
	return false
}

// Victim describes a line displaced by Install.
type Victim struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// Install places addr into its set as MRU, returning the displaced line.
// Installing an already-present line refreshes it (and may set dirty).
func (l *Level) Install(addr uint64, dirty bool) Victim {
	return l.install(addr, dirty, false)
}

// InstallPrefetched installs a line brought in by a core-side prefetcher;
// its first demand hit counts toward prefetch usefulness.
func (l *Level) InstallPrefetched(addr uint64) Victim {
	l.prefInstalled.Inc()
	return l.install(addr, false, true)
}

// install makes one pass over the set: it finds the line if present, else
// the first free way, else the valid way with the smallest stamp (the LRU
// line).
func (l *Level) install(addr uint64, dirty, prefetched bool) Victim {
	set, tag := l.index(addr)
	base := set * l.ways
	free, lru := -1, -1
	var oldest uint8
	for i := base; i < base+l.ways; i++ {
		if l.state[i]&stValid == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if l.tags[i] == tag {
			// Already present: refresh (a prefetch overlay never
			// downgrades the line's state).
			l.touch(set, i)
			if dirty {
				l.state[i] |= stDirty
			}
			return Victim{}
		}
		if lru < 0 || l.stamp[i] < oldest {
			lru, oldest = i, l.stamp[i]
		}
	}
	var victim Victim
	i := free
	if i < 0 {
		i = lru
		victim = Victim{
			Addr:  l.reconstruct(set, l.tags[i]),
			Dirty: l.state[i]&stDirty != 0,
			Valid: true,
		}
		l.evicts.Inc()
		if victim.Dirty {
			l.wbacks.Inc()
		}
	}
	l.tags[i] = tag
	l.state[i] = stValid
	if dirty {
		l.state[i] |= stDirty
	}
	if prefetched {
		l.state[i] |= stPref
	}
	l.touch(set, i)
	return victim
}

// PrefetchInstalled returns lines installed by a core-side prefetcher.
func (l *Level) PrefetchInstalled() uint64 { return l.prefInstalled.Value() }

// PrefetchUseful returns prefetched lines that saw a demand hit.
func (l *Level) PrefetchUseful() uint64 { return l.prefUseful.Value() }

// reconstruct rebuilds a line's base address from set and tag.
func (l *Level) reconstruct(set int, tag uint64) uint64 {
	line := tag<<uint(bits.TrailingZeros64(uint64(l.sets))) | uint64(set)
	return line << l.lineShift
}

// touch makes line i (an index into set's ways) the set's MRU entry.
func (l *Level) touch(set, i int) {
	next := l.clock[set] + 1
	if next == 0 {
		next = l.renumber(set, i)
	}
	l.clock[set] = next
	l.stamp[i] = next
}

// renumber restamps the valid lines of set other than line i as 0..n-1 in
// recency order and returns n, the stamp that makes line i the MRU. Valid
// stamps in a set are distinct (each touch issues one above all others),
// so indexing lines by stamp sorts them. n <= ways-1 < 256.
func (l *Level) renumber(set, skip int) uint8 {
	var byStamp [256]uint16 // line offset within the set + 1; 0 = none
	base := set * l.ways
	for i := base; i < base+l.ways; i++ {
		if i != skip && l.state[i]&stValid != 0 {
			byStamp[l.stamp[i]] = uint16(i - base + 1)
		}
	}
	n := uint8(0)
	for _, w := range byStamp {
		if w != 0 {
			l.stamp[base+int(w)-1] = n
			n++
		}
	}
	return n
}

// Hierarchy is the full per-chip cache stack.
type Hierarchy struct {
	l1, l2 []*Level
	l3     *Level
	cfg    config.Config

	l3MissPerCore []stats.Counter

	// wbBuf backs Result.Writebacks. One access surfaces at most three
	// dirty victims: the L3 install, the L2→L3 cascade and the
	// L1→L2→L3 cascade.
	wbBuf [3]uint64
}

// NewHierarchy builds the stack for cfg.Processor.Cores cores.
func NewHierarchy(cfg config.Config) *Hierarchy {
	h := &Hierarchy{cfg: cfg, l3: NewLevel(cfg.L3)}
	h.l1 = make([]*Level, cfg.Processor.Cores)
	h.l2 = make([]*Level, cfg.Processor.Cores)
	h.l3MissPerCore = make([]stats.Counter, cfg.Processor.Cores)
	for i := range h.l1 {
		h.l1[i] = NewLevel(cfg.L1)
		h.l2[i] = NewLevel(cfg.L2)
	}
	return h
}

// Clone returns a deep copy of h: every level's contents, LRU order and
// counters, so the copy continues exactly as h would. Nothing is shared, and
// no observability registration carries over.
func (h *Hierarchy) Clone() *Hierarchy {
	cp := *h
	cp.l3 = h.l3.clone()
	cp.l1 = make([]*Level, len(h.l1))
	cp.l2 = make([]*Level, len(h.l2))
	for i := range h.l1 {
		cp.l1[i] = h.l1[i].clone()
		cp.l2[i] = h.l2[i].clone()
	}
	cp.l3MissPerCore = append([]stats.Counter(nil), h.l3MissPerCore...)
	return &cp
}

// Instrument registers the hierarchy's hit/miss counters with the
// observability registry under the cache.* namespace (private levels are
// aggregated across cores at snapshot time).
func (h *Hierarchy) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, l := range h.l1 {
		reg.CounterFunc("cache.l1_hits", l.hits.Value)
		reg.CounterFunc("cache.l1_misses", l.misses.Value)
	}
	for _, l := range h.l2 {
		reg.CounterFunc("cache.l2_hits", l.hits.Value)
		reg.CounterFunc("cache.l2_misses", l.misses.Value)
	}
	reg.CounterFunc("cache.l3_hits", h.l3.hits.Value)
	reg.CounterFunc("cache.l3_misses", h.l3.misses.Value)
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
func (h *Hierarchy) Access(core int, addr uint64, write bool) Result {
	if core < 0 || core >= len(h.l1) {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	l1, l2 := h.l1[core], h.l2[core]
	res := Result{Latency: l1.HitLatency()}
	if l1.Lookup(addr, write) {
		res.Level = 1
		return res
	}
	res.Latency += l2.HitLatency()
	if l2.Lookup(addr, false) {
		res.Level = 2
		h.fillL1(core, addr, write, &res)
		return res
	}
	res.Latency += h.l3.HitLatency()
	if h.l3.Lookup(addr, false) {
		res.Level = 3
		h.fillL2(core, addr, &res)
		h.fillL1(core, addr, write, &res)
		return res
	}
	// Miss to memory: install everywhere on the way back.
	res.Level = 4
	h.l3MissPerCore[core].Inc()
	if v := h.l3.Install(addr, false); v.Valid && v.Dirty {
		h.writeback(&res, v.Addr)
	}
	h.fillL2(core, addr, &res)
	h.fillL1(core, addr, write, &res)
	return res
}

// fillL1 installs addr into core's L1, cascading a dirty victim into L2.
func (h *Hierarchy) fillL1(core int, addr uint64, write bool, res *Result) {
	if v := h.l1[core].Install(addr, write); v.Valid && v.Dirty {
		h.installDirty(h.l2[core], v.Addr, res, func(v2 Victim) {
			h.installDirty(h.l3, v2.Addr, res, func(v3 Victim) {
				h.writeback(res, v3.Addr)
			})
		})
	}
}

// fillL2 installs addr into core's L2, cascading a dirty victim into L3.
func (h *Hierarchy) fillL2(core int, addr uint64, res *Result) {
	if v := h.l2[core].Install(addr, false); v.Valid && v.Dirty {
		h.installDirty(h.l3, v.Addr, res, func(v3 Victim) {
			h.writeback(res, v3.Addr)
		})
	}
}

// writeback appends a dirty L3 victim to res, in the hierarchy's buffer.
func (h *Hierarchy) writeback(res *Result, addr uint64) {
	if res.Writebacks == nil {
		res.Writebacks = h.wbBuf[:0]
	}
	res.Writebacks = append(res.Writebacks, addr)
}

// installDirty writes a dirty victim into a lower level; if that in turn
// displaces a dirty line, onDirty handles it.
func (h *Hierarchy) installDirty(lvl *Level, addr uint64, res *Result, onDirty func(Victim)) {
	if lvl.Lookup(addr, true) {
		return
	}
	if v := lvl.Install(addr, true); v.Valid && v.Dirty {
		onDirty(v)
	}
}

// InstallPrefetched installs a line fetched by core's L2 prefetcher into
// its L2 and the shared L3, returning dirty L3 victims that must be
// written to memory. It is the fill path of the core-side prefetching
// ablation; the installed lines count toward prefetch usefulness on their
// first demand hit.
func (h *Hierarchy) InstallPrefetched(core int, addr uint64) []uint64 {
	var wbs []uint64
	if v := h.l3.InstallPrefetched(addr); v.Valid && v.Dirty {
		wbs = append(wbs, v.Addr)
	}
	if v := h.l2[core].InstallPrefetched(addr); v.Valid && v.Dirty {
		res := Result{}
		h.installDirty(h.l3, v.Addr, &res, func(v3 Victim) {
			wbs = append(wbs, v3.Addr)
		})
		wbs = append(wbs, res.Writebacks...)
	}
	return wbs
}

// L1 returns core's L1 (for tests).
func (h *Hierarchy) L1(core int) *Level { return h.l1[core] }

// L2 returns core's L2 (for tests).
func (h *Hierarchy) L2(core int) *Level { return h.l2[core] }

// L3 returns the shared L3.
func (h *Hierarchy) L3() *Level { return h.l3 }

// L3Misses returns core's L3 miss count (the MPKI numerator).
func (h *Hierarchy) L3Misses(core int) uint64 { return h.l3MissPerCore[core].Value() }
