package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"camps/internal/config"
	"camps/internal/obs"
	"camps/internal/workload"
)

// putCounted installs addr as put does and also reports whether the fill
// displaced a valid line, which the level's eviction counter records.
func putCounted(l *Level, addr uint64, dirty bool) (Victim, bool) {
	before := l.evicts.Value()
	v := l.put(addr, dirty, false)
	return v, l.evicts.Value() > before
}

// newLevel builds an empty cache level from its configuration.
func newLevel(cfg config.CacheLevel) *Level {
	return levelOf(cfg).emptyIn(nil)
}

func tinyLevel(ways int) *Level {
	return newLevel(config.CacheLevel{
		SizeBytes:  int64(ways * 4 * 64), // 4 sets
		Ways:       ways,
		LineBytes:  64,
		HitLatency: 2,
	})
}

// lookup is one demand probe of l: it reports a hit, refreshing LRU and,
// for a write, setting the dirty bit.
func (l *Level) lookup(addr uint64, write bool) bool {
	_, hit := l.demand(addr, write)
	return hit
}

func TestLevelHitMiss(t *testing.T) {
	l := tinyLevel(2)
	if l.lookup(0, false) {
		t.Fatal("hit on empty cache")
	}
	l.put(0, false, false)
	if !l.lookup(0, false) {
		t.Fatal("miss after install")
	}
	if !l.Contains(0) || l.Contains(64) {
		t.Fatal("Contains wrong")
	}
	if l.Hits() != 1 || l.Misses() != 1 {
		t.Fatalf("hits %d misses %d", l.Hits(), l.Misses())
	}
}

func TestLevelLRUEviction(t *testing.T) {
	l := tinyLevel(2) // 4 sets, so same-set addresses differ by 4*64=256
	a, b, c := uint64(0), uint64(256), uint64(512)
	l.put(a, false, false)
	l.put(b, false, false)
	l.lookup(a, false) // a MRU, b LRU
	v, evicted := putCounted(l, c, false)
	if !evicted || v.Addr != b {
		t.Fatalf("evicted %+v, want line %#x", v, b)
	}
	if !l.Contains(a) || !l.Contains(c) || l.Contains(b) {
		t.Fatal("residency wrong after eviction")
	}
}

func TestLevelDirtyEviction(t *testing.T) {
	l := tinyLevel(1)
	l.put(0, false, false)
	l.lookup(0, true) // dirty via write hit
	v, evicted := putCounted(l, 256, false)
	if !evicted || !v.Dirty || v.Addr != 0 {
		t.Fatalf("dirty eviction = %+v", v)
	}
	if l.wbacks.Value() != 1 {
		t.Fatalf("writebacks = %d", l.wbacks.Value())
	}
	// Clean eviction.
	v = l.put(512, false, false)
	if v.Dirty {
		t.Fatal("clean line evicted dirty")
	}
}

func TestLevelInstallExistingRefreshes(t *testing.T) {
	l := tinyLevel(2)
	l.put(0, false, false)
	if _, evicted := putCounted(l, 0, true); evicted { // refresh + dirty
		t.Fatal("reinstall evicted something")
	}
	if _, evicted := putCounted(l, 256, false); evicted {
		t.Fatal("install into free way evicted")
	}
	v3, evicted := putCounted(l, 512, false) // evicts LRU = line 256? No: 0 refreshed first, then 256 -> LRU is 0.
	if !evicted || v3.Addr != 0 || !v3.Dirty {
		t.Fatalf("evicted %+v, want dirty line 0", v3)
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	l := tinyLevel(1)
	addr := uint64(0xABCD00) // set = (0xABCD00>>6)&3
	l.put(addr, false, false)
	conflict := addr + 256 // same set, different tag (4 sets * 64B)
	v, evicted := putCounted(l, conflict, false)
	if !evicted || v.Addr != addr {
		t.Fatalf("reconstructed victim %#x, want %#x", v.Addr, addr)
	}
}

// TestPackedLineWordAtLimit checks the packed way word at the smallest
// line size, where the tag limit is lowest: the highest taggable line (an
// all-ones tag in the last set) must hit, miss and reconstruct exactly,
// with the dirty and prefetched bits kept apart from the tag and the
// recency stamp, also while the set's clock wraps and renumbers.
func TestPackedLineWordAtLimit(t *testing.T) {
	lvl := config.CacheLevel{
		SizeBytes: 2 * 2 * config.MinCacheLineBytes, Ways: 2, // 2 sets
		LineBytes: config.MinCacheLineBytes, HitLatency: 1,
	}
	l := newLevel(lvl)
	limit := uint64(1) << (config.CacheTagBits + 1 + 3)
	if got := AddressLimit(config.Config{L1: lvl, L2: lvl, L3: lvl}); got != limit {
		t.Fatalf("AddressLimit = %#x, want %#x", got, limit)
	}
	line := uint64(config.MinCacheLineBytes)
	hi := limit - line                 // all-ones tag, set 1
	lo := line                         // tag 0, set 1
	near := hi - 2*line                // set 1, tag one below all-ones
	far := hi &^ (limit >> 1)          // set 1, top tag bit clear
	word := func(addr uint64) uint32 { // the way holding addr
		set, tag := l.index(addr)
		for i := set * l.ways; i < (set+1)*l.ways; i++ {
			if l.lines[i]&stValid != 0 && l.lines[i]>>tagShift == tag {
				return l.lines[i]
			}
		}
		t.Fatalf("%#x not resident", addr)
		return 0
	}
	l.installPrefetched(hi)
	l.put(lo, true, false)
	if !l.Contains(hi) || !l.Contains(lo) || l.Contains(near) || l.Contains(far) {
		t.Fatal("residency wrong at the tag limit")
	}
	if w := word(hi); w>>tagShift != 1<<config.CacheTagBits-1 || w&stPref == 0 || w&stDirty != 0 {
		t.Fatalf("prefetched all-ones line word %#x", w)
	}
	if !l.lookup(hi, true) || l.prefUseful.Value() != 1 {
		t.Fatal("prefetched line at the limit missed on first demand hit")
	}
	// 600 alternating hits wrap set 1's clock twice: renumbering must
	// move only the stamps.
	for i := range 600 {
		l.lookup([]uint64{lo, hi}[i%2], false)
	}
	if w := word(hi); w>>tagShift != 1<<config.CacheTagBits-1 || w&stPref != 0 || w&stDirty == 0 {
		t.Fatalf("all-ones line word %#x after the clock wrapped", w)
	}
	if w := word(lo); w>>tagShift != 0 || w&stDirty == 0 {
		t.Fatalf("tag-0 line word %#x after the clock wrapped", w)
	}
	l.lookup(lo, false) // hi becomes LRU
	v, evicted := putCounted(l, near, false)
	if !evicted || !v.Dirty || v.Addr != hi {
		t.Fatalf("victim %+v, want dirty %#x", v, hi)
	}
	if !l.Contains(near) || l.Contains(hi) {
		t.Fatal("residency wrong after evicting the all-ones line")
	}
}

func TestNewLevelRejectsSubWordLines(t *testing.T) {
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, config.ErrCacheLine.Error()) {
			t.Fatalf("newLevel(4-byte lines) panicked with %v, want %q", r, config.ErrCacheLine)
		}
	}()
	newLevel(config.CacheLevel{SizeBytes: 64, Ways: 2, LineBytes: 4, HitLatency: 1})
}

// refLRU is a reference true-LRU cache kept as one MRU-first list per
// set, written independently of Level's recency stamps.
type refLRU struct {
	ways, sets int
	lists      [][]refLine
	useful     int
	evicts     int
}

type refLine struct {
	line        uint64
	dirty, pref bool
}

func newRefLRU(ways, sets int) *refLRU {
	return &refLRU{ways: ways, sets: sets, lists: make([][]refLine, sets)}
}

// find returns addr's set and the line's position in it (-1 if absent).
func (r *refLRU) find(addr uint64) (int, int) {
	line := addr >> 6
	set := int(line % uint64(r.sets))
	for k, e := range r.lists[set] {
		if e.line == line {
			return set, k
		}
	}
	return set, -1
}

// promote moves position k of set to the MRU end (the front).
func (r *refLRU) promote(set, k int) *refLine {
	l := r.lists[set]
	e := l[k]
	copy(l[1:k+1], l[:k])
	l[0] = e
	return &l[0]
}

func (r *refLRU) lookup(addr uint64, write bool) bool {
	set, k := r.find(addr)
	if k < 0 {
		return false
	}
	e := r.promote(set, k)
	e.dirty = e.dirty || write
	if e.pref {
		e.pref = false
		r.useful++
	}
	return true
}

func (r *refLRU) install(addr uint64, dirty, pref bool) Victim {
	set, k := r.find(addr)
	if k >= 0 {
		e := r.promote(set, k)
		e.dirty = e.dirty || dirty
		return Victim{}
	}
	var v Victim
	l := r.lists[set]
	if len(l) == r.ways {
		old := l[len(l)-1]
		v = Victim{Addr: old.line << 6, Dirty: old.dirty}
		r.evicts++
		l = l[:len(l)-1]
	}
	r.lists[set] = append([]refLine{{line: addr >> 6, dirty: dirty, pref: pref}}, l...)
	return v
}

// TestLevelMatchesReferenceLRU drives random Lookup / Install /
// installPrefetched streams through a Level and through refLRU: every
// hit, victim (address, dirty bit), eviction and prefetch-usefulness count must
// agree, and so must the dirty bit of every resident line at the end.
// The single-set cases push one set's one-byte clock past its wrap many
// times, exercising the recency renumbering.
func TestLevelMatchesReferenceLRU(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ways, sets int
		lines, ops int
		minWraps   int // set 0's clock must wrap at least this often
	}{
		{"2way", 2, 4, 24, 20000, 0},
		{"4way", 4, 4, 48, 20000, 0},
		{"16way", 16, 4, 160, 20000, 0},
		{"16way-one-set-wraps", 16, 1, 40, 6000, 5},
		{"256way-one-set", 256, 1, 400, 4000, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLevel(config.CacheLevel{
				SizeBytes: int64(tc.ways * tc.sets * 64), Ways: tc.ways,
				LineBytes: 64, HitLatency: 1,
			})
			ref := newRefLRU(tc.ways, tc.sets)
			rng := rand.New(rand.NewSource(int64(tc.ways*131 + tc.sets)))
			wraps, clock := 0, l.clock[0]
			for op := 0; op < tc.ops; op++ {
				addr := uint64(rng.Intn(tc.lines)) * 64
				switch rng.Intn(3) {
				case 0:
					write := rng.Intn(3) == 0
					if got, want := l.lookup(addr, write), ref.lookup(addr, write); got != want {
						t.Fatalf("op %d: Lookup(%#x) hit=%v, reference %v", op, addr, got, want)
					}
				case 1:
					dirty := rng.Intn(3) == 0
					if got, want := l.put(addr, dirty, false), ref.install(addr, dirty, false); got != want {
						t.Fatalf("op %d: put(%#x) victim %+v, reference %+v", op, addr, got, want)
					}
				default:
					if got, want := l.installPrefetched(addr), ref.install(addr, false, true); got != want {
						t.Fatalf("op %d: installPrefetched(%#x) victim %+v, reference %+v", op, addr, got, want)
					}
				}
				if got := int(l.evicts.Value()); got != ref.evicts {
					t.Fatalf("op %d: %d evictions, reference %d", op, got, ref.evicts)
				}
				if l.clock[0] < clock {
					wraps++
				}
				clock = l.clock[0]
			}
			if wraps < tc.minWraps {
				t.Fatalf("set 0's clock wrapped %d times, want at least %d", wraps, tc.minWraps)
			}
			if got := int(l.prefUseful.Value()); got != ref.useful {
				t.Fatalf("prefetch useful = %d, reference %d", got, ref.useful)
			}
			for set, lines := range ref.lists {
				for _, e := range lines {
					addr := e.line << 6
					s, tag := l.index(addr)
					found := false
					for i := s * l.ways; i < (s+1)*l.ways; i++ {
						if l.lines[i]&stValid != 0 && l.lines[i]>>tagShift == tag {
							found = true
							if dirty := l.lines[i]&stDirty != 0; dirty != e.dirty {
								t.Fatalf("set %d line %#x dirty=%v, reference %v", set, addr, dirty, e.dirty)
							}
						}
					}
					if !found {
						t.Fatalf("set %d: reference holds %#x, level does not", set, addr)
					}
				}
			}
		})
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	// Cold miss: level 4, latency 2+6+20.
	r := h.Access(0, 0, false)
	if r.Level != 4 || r.Latency != 28 {
		t.Fatalf("cold access = %+v, want level 4 latency 28", r)
	}
	// Immediately after: L1 hit.
	r = h.Access(0, 0, false)
	if r.Level != 1 || r.Latency != 2 {
		t.Fatalf("repeat access = %+v, want level 1 latency 2", r)
	}
	if h.L3Misses(0) != 1 {
		t.Fatalf("L3 misses = %d, want 1", h.L3Misses(0))
	}
}

func TestHierarchyL2AndL3Hits(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	h.Access(0, 0, false) // install everywhere
	// Evict from L1 (32KB, 2-way, 64B -> 256 sets; same L1 set every 16KB)
	// while staying in L2 (256KB, 4-way -> 1024 sets; same set every 64KB).
	h.Access(0, 16384, false)
	h.Access(0, 32768, false) // L1 set now {16K, 32K}; 0 evicted from L1
	r := h.Access(0, 0, false)
	if r.Level != 2 || r.Latency != 8 {
		t.Fatalf("L2 hit = %+v, want level 2 latency 8", r)
	}
	// L3 hit by another core (L3 shared; its L1/L2 are cold).
	r = h.Access(1, 0, false)
	if r.Level != 3 || r.Latency != 28 {
		t.Fatalf("cross-core L3 hit = %+v, want level 3 latency 28", r)
	}
}

func TestHierarchyWritebackSurfacesAtMemory(t *testing.T) {
	cfg := config.Default()
	// Shrink L3 so we can force dirty evictions quickly.
	cfg.L1 = config.CacheLevel{SizeBytes: 128, Ways: 1, LineBytes: 64, HitLatency: 2}
	cfg.L2 = config.CacheLevel{SizeBytes: 256, Ways: 1, LineBytes: 64, HitLatency: 6}
	cfg.L3 = config.CacheLevel{SizeBytes: 512, Ways: 1, LineBytes: 64, HitLatency: 20}
	h := NewHierarchy(cfg)

	h.Access(0, 0, true) // dirty line 0 in L1
	// Walk addresses mapping to the same sets until line 0 is forced out
	// of all three levels; collect writebacks.
	var wbs []uint64
	for i := 1; i <= 64; i++ {
		r := h.Access(0, uint64(i)*512*8, true)
		wbs = append(wbs, r.Writebacks...)
	}
	found := false
	for _, a := range wbs {
		if a == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dirty line 0 never surfaced as a memory writeback (got %v)", wbs)
	}
}

// TestHierarchyInstrumentReportsLevelCounters: every counter a level
// keeps reaches the registry, summed over the cores' private levels. L1
// is never filled by the core-side prefetcher, so it has no prefetch
// counters.
func TestHierarchyInstrumentReportsLevelCounters(t *testing.T) {
	cfg := config.Default()
	cfg.L1 = config.CacheLevel{SizeBytes: 128, Ways: 1, LineBytes: 64, HitLatency: 2}
	cfg.L2 = config.CacheLevel{SizeBytes: 256, Ways: 1, LineBytes: 64, HitLatency: 6}
	cfg.L3 = config.CacheLevel{SizeBytes: 512, Ways: 2, LineBytes: 64, HitLatency: 20}
	h := NewHierarchy(cfg)
	reg := obs.NewRegistry()
	h.Instrument(reg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		core, addr := i%2, uint64(rng.Intn(32))*64
		if i%4 == 0 {
			h.InstallPrefetched(core, addr)
		} else {
			h.Access(core, addr, i%3 == 0)
		}
	}
	want := make(map[string]uint64)
	for name, levels := range map[string][]*Level{"l1": h.l1, "l2": h.l2, "l3": {h.l3}} {
		for _, l := range levels {
			want["cache."+name+"_hits"] += l.hits.Value()
			want["cache."+name+"_misses"] += l.misses.Value()
			want["cache."+name+"_evictions"] += l.evicts.Value()
			want["cache."+name+"_writebacks"] += l.wbacks.Value()
			if name != "l1" {
				want["cache."+name+"_prefetch_installs"] += l.prefInstalled.Value()
				want["cache."+name+"_prefetch_useful"] += l.prefUseful.Value()
			}
		}
	}
	got := reg.Snapshot("t", 0).Counters
	for name, w := range want {
		if w == 0 {
			t.Errorf("%s: the traffic never moved it", name)
		}
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}
}

func TestHierarchyPrivateness(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	h.Access(0, 4096, false)
	// Core 1's private caches must not hold core 0's line.
	if h.L1(1).Contains(4096) || h.L2(1).Contains(4096) {
		t.Fatal("private caches leaked across cores")
	}
	if !h.L3().Contains(4096) {
		t.Fatal("shared L3 missing the line")
	}
}

func TestHierarchyCoreRangePanics(t *testing.T) {
	h := NewHierarchy(config.Default())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range core did not panic")
		}
	}()
	h.Access(99, 0, false)
}

func TestHierarchyFootprintDrivesMissRate(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	// Small footprint (1 MiB): after warmup, high hit rate.
	rng := rand.New(rand.NewSource(1))
	warm := func(foot uint64, core int, n int) (miss uint64) {
		pre := h.L3Misses(core)
		for i := 0; i < n; i++ {
			h.Access(core, (uint64(rng.Intn(int(foot/64))))*64, false)
		}
		return h.L3Misses(core) - pre
	}
	warm(1<<20, 0, 50000) // warmup
	smallMisses := warm(1<<20, 0, 50000)
	// Large footprint (256 MiB) on another core: mostly misses.
	warm(256<<20, 1, 50000)
	largeMisses := warm(256<<20, 1, 50000)
	if smallMisses*10 >= largeMisses {
		t.Fatalf("footprint does not differentiate miss rates: small %d, large %d",
			smallMisses, largeMisses)
	}
}

// writebackConfig shrinks every level to a few direct-mapped sets so dirty
// victims cascade on most accesses.
func writebackConfig() config.Config {
	cfg := config.Default()
	cfg.L1 = config.CacheLevel{SizeBytes: 128, Ways: 1, LineBytes: 64, HitLatency: 2}
	cfg.L2 = config.CacheLevel{SizeBytes: 256, Ways: 1, LineBytes: 64, HitLatency: 6}
	cfg.L3 = config.CacheLevel{SizeBytes: 512, Ways: 1, LineBytes: 64, HitLatency: 20}
	return cfg
}

// TestHierarchyWritebacksBorrowed pins the Result.Writebacks contract,
// which InstallPrefetched's result shares: the slice is backed by the
// hierarchy's own three-entry buffer, nil when a call writes nothing
// back, and neither call allocates, even while dirty victims cascade
// through every level.
func TestHierarchyWritebacksBorrowed(t *testing.T) {
	h := NewHierarchy(writebackConfig())
	rng := rand.New(rand.NewSource(5))
	// step makes one Access, or every fourth call on average one
	// prefetch fill, and reports which.
	step := func() (wbs []uint64, pref bool) {
		core, addr := rng.Intn(2), uint64(rng.Intn(64))*64
		if rng.Intn(4) == 0 {
			return h.InstallPrefetched(core, addr), true
		}
		return h.Access(core, addr, rng.Intn(2) == 0).Writebacks, false
	}
	var most [2]int // per kind: Access, InstallPrefetched
	for i := 0; i < 20000; i++ {
		wbs, pref := step()
		if wbs == nil {
			continue
		}
		if len(wbs) == 0 {
			t.Fatalf("call %d: empty non-nil Writebacks", i)
		}
		if &wbs[0] != &h.wbBuf[0] {
			t.Fatalf("call %d: Writebacks not backed by the hierarchy buffer", i)
		}
		k := 0
		if pref {
			k = 1
		}
		most[k] = max(most[k], len(wbs))
	}
	if most[0] < 2 || most[1] < 2 {
		t.Fatalf("at most %v writebacks per Access and per prefetch fill; the stream does not cascade", most)
	}
	t.Logf("up to %v writebacks per Access and per prefetch fill", most)
	// AllocsPerRun truncates its average, so each run makes 100 calls:
	// a path that allocates on one call in a hundred still shows.
	if n := testing.AllocsPerRun(50, func() {
		for range 100 {
			step()
		}
	}); n != 0 {
		t.Fatalf("100 calls to Access and InstallPrefetched allocate %.0f times, want 0", n)
	}
}

// refAccess resolves one reference through h level by level with plain
// Lookup and Install calls, each of which scans its set afresh: the
// hierarchy's semantics written without remembered fill targets.
func refAccess(h *Hierarchy, core int, addr uint64, write bool) Result {
	l1, l2, l3 := h.l1[core], h.l2[core], h.l3
	var res Result
	// absorb writes a dirty victim into lvl; what that displaces dirty
	// goes to next, or to memory.
	var absorb func(lvl *Level, next []*Level, addr uint64)
	absorb = func(lvl *Level, next []*Level, addr uint64) {
		if lvl.lookup(addr, true) {
			return
		}
		if v := lvl.put(addr, true, false); v.Dirty {
			if len(next) == 0 {
				res.Writebacks = append(res.Writebacks, v.Addr)
			} else {
				absorb(next[0], next[1:], v.Addr)
			}
		}
	}
	fill := func(lvl *Level, next []*Level, dirty bool) {
		if v := lvl.put(addr, dirty, false); v.Dirty {
			absorb(next[0], next[1:], v.Addr)
		}
	}
	res.Level, res.Latency = 1, l1.HitLatency()
	if l1.lookup(addr, write) {
		return res
	}
	res.Level, res.Latency = 2, res.Latency+l2.HitLatency()
	if !l2.lookup(addr, false) {
		res.Level, res.Latency = 3, res.Latency+l3.HitLatency()
		if !l3.lookup(addr, false) {
			res.Level = 4
			h.l3MissPerCore[core].Inc()
			if v := l3.put(addr, false, false); v.Dirty {
				res.Writebacks = append(res.Writebacks, v.Addr)
			}
		}
		fill(l2, []*Level{l3}, false)
	}
	fill(l1, []*Level{l2, l3}, write)
	return res
}

// refInstallPrefetched is InstallPrefetched written with plain Level calls.
func refInstallPrefetched(h *Hierarchy, core int, addr uint64) []uint64 {
	var wbs []uint64
	if v := h.l3.installPrefetched(addr); v.Dirty {
		wbs = append(wbs, v.Addr)
	}
	if v := h.l2[core].installPrefetched(addr); v.Dirty && !h.l3.lookup(v.Addr, true) {
		if v3 := h.l3.put(v.Addr, true, false); v3.Dirty {
			wbs = append(wbs, v3.Addr)
		}
	}
	return wbs
}

// TestAccessMatchesPerLevelReference drives random streams through
// Hierarchy.Access and InstallPrefetched, which probe each level once and
// fill remembered targets, and through refAccess, which scans every set
// afresh. Small levels make dirty victims cascade through every level;
// every result, writeback list, counter, line word and recency stamp must
// agree at every associativity, up to MaxCacheWays (a line word holds its
// recency stamp).
func TestAccessMatchesPerLevelReference(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 16, config.MaxCacheWays} {
		t.Run(fmt.Sprintf("%dway", ways), func(t *testing.T) {
			cfg := config.Default()
			cfg.Processor.Cores = 2
			lvl := func(sets int, lat int64) config.CacheLevel {
				return config.CacheLevel{SizeBytes: int64(sets * ways * 64), Ways: ways, LineBytes: 64, HitLatency: lat}
			}
			cfg.L1, cfg.L2, cfg.L3 = lvl(2, 2), lvl(4, 6), lvl(4, 20)
			h, ref := NewHierarchy(cfg), NewHierarchy(cfg)
			rng := rand.New(rand.NewSource(int64(ways)))
			lines := 32 * ways // four times the L3
			most := 0
			for op := 0; op < 40000; op++ {
				core, addr := rng.Intn(2), uint64(rng.Intn(lines))*64
				var got, want []uint64
				if rng.Intn(8) == 0 {
					got = slices.Clone(h.InstallPrefetched(core, addr))
					want = refInstallPrefetched(ref, core, addr)
				} else {
					write := rng.Intn(2) == 0
					a, b := h.Access(core, addr, write), refAccess(ref, core, addr, write)
					if a.Level != b.Level || a.Latency != b.Latency {
						t.Fatalf("op %d: Access(%d, %#x, %v) = level %d latency %d, reference level %d latency %d",
							op, core, addr, write, a.Level, a.Latency, b.Level, b.Latency)
					}
					got, want = slices.Clone(a.Writebacks), b.Writebacks
				}
				if !slices.Equal(got, want) {
					t.Fatalf("op %d (%#x): writebacks %#x, reference %#x", op, addr, got, want)
				}
				most = max(most, len(got))
			}
			if most < 2 {
				t.Fatalf("at most %d writebacks per reference; the stream does not cascade", most)
			}
			if !slices.Equal(counters(h), counters(ref)) {
				t.Fatalf("counters %v, reference %v", counters(h), counters(ref))
			}
			levels := append(append([]*Level{h.l3}, h.l1...), h.l2...)
			refLevels := append(append([]*Level{ref.l3}, ref.l1...), ref.l2...)
			for k, l := range levels {
				r := refLevels[k]
				if !slices.Equal(l.lines, r.lines) || !slices.Equal(l.clock, r.clock) {
					t.Fatalf("level %d: line contents or recency differ from the reference", k)
				}
			}
		})
	}
}

// lm2Traffic returns a Table I hierarchy warmed as a run warms it, with
// the LM2 mix's default 50k references per core, core by core, and the
// mix's next n references (n a multiple of the core count) interleaved
// round-robin over the cores; bit 0 of a reference is its write flag.
// The stream is replayed once before it is returned, which fills the
// L3's last free ways, as a run longer than the warmup does.
func lm2Traffic(tb testing.TB, n int) (*Hierarchy, []uint64) {
	mix, err := workload.MixByID("LM2")
	if err != nil {
		tb.Fatal(err)
	}
	gens, err := mix.Generators(1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := config.Default()
	h := NewHierarchy(cfg)
	for core, g := range gens {
		for range 50_000 {
			addr, write := g.NextAccess()
			h.Access(core, addr, write)
		}
	}
	refs := make([]uint64, n)
	for i := range refs {
		addr, write := gens[i%len(gens)].NextAccess()
		if write {
			addr |= 1
		}
		refs[i] = addr
	}
	replay(h, refs, len(refs))
	return h, refs
}

// replay resolves n references of the cyclic stream refs through h,
// returning how many of them hit in L1.
func replay(h *Hierarchy, refs []uint64, n int) (l1Hits int) {
	for i := range n {
		a := refs[i&(len(refs)-1)]
		if h.Access(i%len(h.l1), a&^1, a&1 != 0).Level == 1 {
			l1Hits++
		}
	}
	return l1Hits
}

// lm2Refs is the replayed stream's length: long enough that a reference
// comes round again only after its line has left the L3, so replaying it
// keeps the level mix (TestHierarchyAccessTrafficShape).
const lm2Refs = 1 << 20

// TestHierarchyAccessTrafficShape pins BenchmarkHierarchyAccess to the
// level mix of a measured run (LM2 under CAMPS-MOD at 400k instructions
// per core: L1 hit rate 0.6%, L3 hit rate 51%, 0.32 dirty writebacks per
// L3 miss): replaying the stream twice after the warmup, L1 must hit
// almost never, L3 must hit about half the time, and every L3 miss must
// evict a line, as in a run whose L3 is full.
func TestHierarchyAccessTrafficShape(t *testing.T) {
	h, refs := lm2Traffic(t, lm2Refs)
	l3 := h.l3
	for i, w := range l3.lines {
		if w&stValid == 0 {
			t.Fatalf("L3 way %d is free after the warmup", i)
		}
	}
	hits, misses, evicts, wbacks := l3.Hits(), l3.Misses(), l3.evicts.Value(), l3.wbacks.Value()
	l1Hits := replay(h, refs, 2*len(refs))
	hits, misses = l3.Hits()-hits, l3.Misses()-misses
	evicts, wbacks = l3.evicts.Value()-evicts, l3.wbacks.Value()-wbacks
	l1Rate := float64(l1Hits) / float64(2*len(refs))
	l3Rate := float64(hits) / float64(hits+misses)
	wbRate := float64(wbacks) / float64(misses)
	t.Logf("L1 hit rate %.4f, L3 hit rate %.3f, %.2f writebacks per L3 miss", l1Rate, l3Rate, wbRate)
	if l1Rate > 0.01 {
		t.Errorf("L1 hit rate %.4f, want at most 0.01", l1Rate)
	}
	if l3Rate < 0.40 || l3Rate > 0.60 {
		t.Errorf("L3 hit rate %.3f, want 0.40..0.60", l3Rate)
	}
	if evicts != misses {
		t.Errorf("%d L3 misses evicted %d lines, want one each", misses, evicts)
	}
	if wbRate < 0.15 || wbRate > 0.50 {
		t.Errorf("%.2f dirty writebacks per L3 miss, want 0.15..0.50", wbRate)
	}
}

// BenchmarkHierarchyAccess measures the default Table I hierarchy on
// LM2's reference stream, replayed after a run's functional warmup: the
// level mix, L3 evictions and dirty writebacks of a measured run
// (TestHierarchyAccessTrafficShape). "access" times one demand reference
// through Access; "L1", "L2" and "L3" time one probe of that level's set
// for the stream's next reference, which changes nothing, so each level's
// share of an access can be read off on its own.
func BenchmarkHierarchyAccess(b *testing.B) {
	h, refs := lm2Traffic(b, lm2Refs)
	b.Run("access", func(b *testing.B) {
		b.ReportAllocs()
		replay(h, refs, b.N)
	})
	for _, lvl := range []struct {
		name  string
		level func(core int) *Level
	}{
		{"L1", func(core int) *Level { return h.l1[core] }},
		{"L2", func(core int) *Level { return h.l2[core] }},
		{"L3", func(int) *Level { return h.l3 }},
	} {
		b.Run(lvl.name, func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := range b.N {
				if _, hit := lvl.level(i % len(h.l1)).probe(refs[i&(len(refs)-1)] &^ 1); hit {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}

// counters lists every counter of h, level by level, then per core.
func counters(h *Hierarchy) []uint64 {
	var out []uint64
	levels := append(append([]*Level{h.l3}, h.l1...), h.l2...)
	for _, l := range levels {
		out = append(out, l.hits.Value(), l.misses.Value(), l.evicts.Value(),
			l.wbacks.Value(), l.prefInstalled.Value(), l.prefUseful.Value())
	}
	for core := range h.l3MissPerCore {
		out = append(out, h.L3Misses(core))
	}
	return out
}

// TestHierarchyCloneIsIndependent warms a hierarchy, clones it, and drives
// both with one stream: the clone must resolve every access exactly as the
// original does and carry the same counters, and driving the clone alone
// must leave the original untouched.
func TestHierarchyCloneIsIndependent(t *testing.T) {
	h := NewHierarchy(cloneTestConfig())
	rng := rand.New(rand.NewSource(9))
	step := func(h *Hierarchy, core int, addr uint64, write, pref bool) Result {
		if pref {
			h.InstallPrefetched(core, addr)
			return Result{}
		}
		r := h.Access(core, addr, write)
		r.Writebacks = append([]uint64(nil), r.Writebacks...)
		return r
	}
	type ref struct {
		core        int
		addr        uint64
		write, pref bool
	}
	next := func() ref {
		return ref{rng.Intn(2), uint64(rng.Intn(64)) * 64, rng.Intn(3) == 0, rng.Intn(8) == 0}
	}
	for i := 0; i < 5000; i++ {
		r := next()
		step(h, r.core, r.addr, r.write, r.pref)
	}
	cp := h.Clone(nil)
	if !slices.Equal(counters(h), counters(cp)) {
		t.Fatal("clone's counters differ from the original's")
	}
	for i := 0; i < 20000; i++ {
		r := next()
		a, b := step(h, r.core, r.addr, r.write, r.pref), step(cp, r.core, r.addr, r.write, r.pref)
		if a.Level != b.Level || a.Latency != b.Latency || !slices.Equal(a.Writebacks, b.Writebacks) {
			t.Fatalf("access %d: original %+v, clone %+v", i, a, b)
		}
	}
	if !slices.Equal(counters(h), counters(cp)) {
		t.Fatal("counters diverged under the same stream")
	}
	before := counters(h)
	for i := 0; i < 1000; i++ {
		cp.Access(0, uint64(rng.Intn(64))*64, true)
	}
	if !slices.Equal(before, counters(h)) {
		t.Fatal("driving the clone changed the original")
	}
}

// cloneTestConfig has small associative levels, so LRU order and set
// clocks decide victims.
func cloneTestConfig() config.Config {
	cfg := config.Default()
	cfg.L1 = config.CacheLevel{SizeBytes: 256, Ways: 2, LineBytes: 64, HitLatency: 2}
	cfg.L2 = config.CacheLevel{SizeBytes: 512, Ways: 2, LineBytes: 64, HitLatency: 6}
	cfg.L3 = config.CacheLevel{SizeBytes: 1024, Ways: 4, LineBytes: 64, HitLatency: 20}
	return cfg
}

// drive sends n random references of cores 0 and 1 through h: reads,
// writes and prefetch installs over 64 lines.
func drive(h *Hierarchy, rng *rand.Rand, n int) {
	for range n {
		core, addr := rng.Intn(2), uint64(rng.Intn(64))*64
		if rng.Intn(8) == 0 {
			h.InstallPrefetched(core, addr)
		} else {
			h.Access(core, addr, rng.Intn(3) == 0)
		}
	}
}

// requireSameState fails t unless got has want's shape and address limit
// and, level by level, the same line words, set clocks and counters.
func requireSameState(t *testing.T, want, got *Hierarchy) {
	t.Helper()
	levels := func(h *Hierarchy) []*Level { return append(append([]*Level{h.l3}, h.l1...), h.l2...) }
	if len(got.l1) != len(want.l1) || got.limit != want.limit {
		t.Fatalf("%d cores, limit %#x; want %d, %#x", len(got.l1), got.limit, len(want.l1), want.limit)
	}
	for i, w := range levels(want) {
		g := levels(got)[i]
		if !g.sameGeometry(w) || !slices.Equal(w.lines, g.lines) || !slices.Equal(w.clock, g.clock) || w.hitLat != g.hitLat {
			t.Fatalf("level %d: geometry, line words, set clocks or latency differ", i)
		}
	}
	if !slices.Equal(counters(want), counters(got)) {
		t.Fatalf("counters %v, want %v", counters(got), counters(want))
	}
}

// TestHierarchyCloneIntoUsedTarget copies a warmed hierarchy into one that
// has served traffic of its own: the copy must reuse the target's memory
// and equal a fresh Clone word for word, clock for clock and counter for
// counter, and then stay independent of its source. A target of another
// core count or level geometry is not reused, and Reset empties a used
// hierarchy in place into what NewHierarchy builds.
func TestHierarchyCloneIntoUsedTarget(t *testing.T) {
	cfg := cloneTestConfig()
	rng := rand.New(rand.NewSource(5))
	src, used := NewHierarchy(cfg), NewHierarchy(cfg)
	drive(src, rng, 5000)
	drive(used, rng, 20000)
	fresh := src.Clone(nil)
	l3Lines := &used.l3.lines[0]
	cp := src.Clone(used)
	if cp != used || &cp.l3.lines[0] != l3Lines {
		t.Fatal("copy into a hierarchy of the source's shape did not reuse its memory")
	}
	requireSameState(t, fresh, cp)

	drive(cp, rng, 2000)
	requireSameState(t, fresh, src)
	drive(src, rand.New(rand.NewSource(7)), 2000)
	drive(fresh, rand.New(rand.NewSource(7)), 2000)
	requireSameState(t, fresh, src)
	if slices.Equal(counters(cp), counters(src)) {
		t.Fatal("copy and source moved together under different streams")
	}

	others := map[string]func(*config.Config){
		"cores": func(c *config.Config) { c.Processor.Cores = 4 },
		"L1 ways": func(c *config.Config) {
			c.L1 = config.CacheLevel{SizeBytes: 256, Ways: 4, LineBytes: 64, HitLatency: 2}
		},
		"L2 sets": func(c *config.Config) { c.L2.SizeBytes = 1024 },
		// Same ways and sets, so line and clock arrays of the same lengths.
		"L3 line size": func(c *config.Config) {
			c.L3 = config.CacheLevel{SizeBytes: 2048, Ways: 4, LineBytes: 128, HitLatency: 20}
		},
	}
	for name, apply := range others {
		ocfg := cloneTestConfig()
		apply(&ocfg)
		other := NewHierarchy(ocfg)
		drive(other, rng, 1000)
		if cp := src.Clone(other); cp == other {
			t.Errorf("%s: a target of another shape was reused", name)
		} else {
			requireSameState(t, src, cp)
		}
		if h := other.Reset(cfg); h == other {
			t.Errorf("%s: Reset reused a hierarchy of another shape", name)
		} else {
			requireSameState(t, NewHierarchy(cfg), h)
		}
	}

	if h := used.Reset(cfg); h != used {
		t.Error("Reset did not reuse a hierarchy of cfg's shape")
	} else {
		requireSameState(t, NewHierarchy(cfg), h)
	}
}
