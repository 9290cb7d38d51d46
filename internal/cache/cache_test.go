package cache

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"camps/internal/config"
)

func tinyLevel(ways int) *Level {
	return NewLevel(config.CacheLevel{
		SizeBytes:  int64(ways * 4 * 64), // 4 sets
		Ways:       ways,
		LineBytes:  64,
		HitLatency: 2,
		MSHRs:      4,
	})
}

func TestLevelHitMiss(t *testing.T) {
	l := tinyLevel(2)
	if l.Lookup(0, false) {
		t.Fatal("hit on empty cache")
	}
	l.Install(0, false)
	if !l.Lookup(0, false) {
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
	l.Install(a, false)
	l.Install(b, false)
	l.Lookup(a, false) // a MRU, b LRU
	v := l.Install(c, false)
	if !v.Valid || v.Addr != b {
		t.Fatalf("evicted %+v, want line %#x", v, b)
	}
	if !l.Contains(a) || !l.Contains(c) || l.Contains(b) {
		t.Fatal("residency wrong after eviction")
	}
}

func TestLevelDirtyEviction(t *testing.T) {
	l := tinyLevel(1)
	l.Install(0, false)
	l.Lookup(0, true) // dirty via write hit
	v := l.Install(256, false)
	if !v.Valid || !v.Dirty || v.Addr != 0 {
		t.Fatalf("dirty eviction = %+v", v)
	}
	if l.Writebacks() != 1 {
		t.Fatalf("writebacks = %d", l.Writebacks())
	}
	// Clean eviction.
	v = l.Install(512, false)
	if v.Dirty {
		t.Fatal("clean line evicted dirty")
	}
}

func TestLevelInstallExistingRefreshes(t *testing.T) {
	l := tinyLevel(2)
	l.Install(0, false)
	v := l.Install(0, true) // refresh + dirty
	if v.Valid {
		t.Fatal("reinstall evicted something")
	}
	v2 := l.Install(256, false)
	if v2.Valid {
		t.Fatal("install into free way evicted")
	}
	v3 := l.Install(512, false) // evicts LRU = line 256? No: 0 refreshed first, then 256 -> LRU is 0.
	if !v3.Valid || v3.Addr != 0 || !v3.Dirty {
		t.Fatalf("evicted %+v, want dirty line 0", v3)
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	l := tinyLevel(1)
	addr := uint64(0xABCD00) // set = (0xABCD00>>6)&3
	l.Install(addr, false)
	conflict := addr + 256 // same set, different tag (4 sets * 64B)
	v := l.Install(conflict, false)
	if !v.Valid || v.Addr != addr {
		t.Fatalf("reconstructed victim %#x, want %#x", v.Addr, addr)
	}
}

// TestPackedLineWordFullWidth checks the packed tag-and-state word at the
// smallest line size, where the tag is widest: addresses in the top bits
// of the 64-bit space must hit, miss and reconstruct exactly, with the
// dirty and prefetched bits kept apart from the tag.
func TestPackedLineWordFullWidth(t *testing.T) {
	l := NewLevel(config.CacheLevel{
		SizeBytes: 2 * config.MinCacheLineBytes, Ways: 2,
		LineBytes: config.MinCacheLineBytes, HitLatency: 1, MSHRs: 1,
	})
	hi, lo := ^uint64(0)&^(config.MinCacheLineBytes-1), uint64(0)
	l.InstallPrefetched(hi)
	l.Install(lo, true)
	if !l.Contains(hi) || !l.Contains(lo) || l.Contains(hi>>1&^7) {
		t.Fatal("residency wrong for full-width tags")
	}
	if !l.Lookup(hi, true) || l.PrefetchUseful() != 1 {
		t.Fatal("prefetched full-width line missed on first demand hit")
	}
	l.Lookup(lo, false) // hi becomes LRU
	v := l.Install(hi-config.MinCacheLineBytes, false)
	if !v.Valid || !v.Dirty || v.Addr != hi {
		t.Fatalf("victim %+v, want dirty %#x", v, hi)
	}
}

func TestNewLevelRejectsSubWordLines(t *testing.T) {
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, config.ErrCacheLine.Error()) {
			t.Fatalf("NewLevel(4-byte lines) panicked with %v, want %q", r, config.ErrCacheLine)
		}
	}()
	NewLevel(config.CacheLevel{SizeBytes: 64, Ways: 2, LineBytes: 4, HitLatency: 1, MSHRs: 1})
}

// refLRU is a reference true-LRU cache kept as one MRU-first list per
// set, written independently of Level's recency stamps.
type refLRU struct {
	ways, sets int
	lists      [][]refLine
	useful     int
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
		v = Victim{Addr: old.line << 6, Dirty: old.dirty, Valid: true}
		l = l[:len(l)-1]
	}
	r.lists[set] = append([]refLine{{line: addr >> 6, dirty: dirty, pref: pref}}, l...)
	return v
}

// TestLevelMatchesReferenceLRU drives random Lookup / Install /
// InstallPrefetched streams through a Level and through refLRU: every
// hit, victim (address, dirty bit) and prefetch-usefulness count must
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
			l := NewLevel(config.CacheLevel{
				SizeBytes: int64(tc.ways * tc.sets * 64), Ways: tc.ways,
				LineBytes: 64, HitLatency: 1, MSHRs: 1,
			})
			ref := newRefLRU(tc.ways, tc.sets)
			rng := rand.New(rand.NewSource(int64(tc.ways*131 + tc.sets)))
			wraps, clock := 0, l.clock[0]
			for op := 0; op < tc.ops; op++ {
				addr := uint64(rng.Intn(tc.lines)) * 64
				switch rng.Intn(3) {
				case 0:
					write := rng.Intn(3) == 0
					if got, want := l.Lookup(addr, write), ref.lookup(addr, write); got != want {
						t.Fatalf("op %d: Lookup(%#x) hit=%v, reference %v", op, addr, got, want)
					}
				case 1:
					dirty := rng.Intn(3) == 0
					if got, want := l.Install(addr, dirty), ref.install(addr, dirty, false); got != want {
						t.Fatalf("op %d: Install(%#x) victim %+v, reference %+v", op, addr, got, want)
					}
				default:
					if got, want := l.InstallPrefetched(addr), ref.install(addr, false, true); got != want {
						t.Fatalf("op %d: InstallPrefetched(%#x) victim %+v, reference %+v", op, addr, got, want)
					}
				}
				if l.clock[0] < clock {
					wraps++
				}
				clock = l.clock[0]
			}
			if wraps < tc.minWraps {
				t.Fatalf("set 0's clock wrapped %d times, want at least %d", wraps, tc.minWraps)
			}
			if got := int(l.PrefetchUseful()); got != ref.useful {
				t.Fatalf("prefetch useful = %d, reference %d", got, ref.useful)
			}
			for set, lines := range ref.lists {
				for _, e := range lines {
					addr := e.line << 6
					s, tag := l.index(addr)
					found := false
					for i := s * l.ways; i < (s+1)*l.ways; i++ {
						if l.lines[i]&stValid != 0 && l.lines[i]>>stBits == tag {
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
	cfg.L1 = config.CacheLevel{SizeBytes: 128, Ways: 1, LineBytes: 64, HitLatency: 2, MSHRs: 4}
	cfg.L2 = config.CacheLevel{SizeBytes: 256, Ways: 1, LineBytes: 64, HitLatency: 6, MSHRs: 4}
	cfg.L3 = config.CacheLevel{SizeBytes: 512, Ways: 1, LineBytes: 64, HitLatency: 20, MSHRs: 4, Shared: true}
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
	cfg.L1 = config.CacheLevel{SizeBytes: 128, Ways: 1, LineBytes: 64, HitLatency: 2, MSHRs: 4}
	cfg.L2 = config.CacheLevel{SizeBytes: 256, Ways: 1, LineBytes: 64, HitLatency: 6, MSHRs: 4}
	cfg.L3 = config.CacheLevel{SizeBytes: 512, Ways: 1, LineBytes: 64, HitLatency: 20, MSHRs: 4, Shared: true}
	return cfg
}

// TestHierarchyWritebacksBorrowed pins the Result.Writebacks contract: the
// slice is backed by the hierarchy's own three-entry buffer, nil when an
// access writes nothing back, and Access allocates nothing even while
// dirty victims cascade through every level.
func TestHierarchyWritebacksBorrowed(t *testing.T) {
	h := NewHierarchy(writebackConfig())
	rng := rand.New(rand.NewSource(5))
	most := 0
	for i := 0; i < 20000; i++ {
		r := h.Access(rng.Intn(2), uint64(rng.Intn(64))*64, rng.Intn(2) == 0)
		if r.Writebacks == nil {
			continue
		}
		if len(r.Writebacks) == 0 {
			t.Fatalf("access %d: empty non-nil Writebacks", i)
		}
		if &r.Writebacks[0] != &h.wbBuf[0] {
			t.Fatalf("access %d: Writebacks not backed by the hierarchy buffer", i)
		}
		most = max(most, len(r.Writebacks))
	}
	if most < 2 {
		t.Fatalf("at most %d writebacks per access; the stream does not cascade", most)
	}
	t.Logf("up to %d writebacks per access", most)
	if n := testing.AllocsPerRun(5000, func() {
		h.Access(rng.Intn(2), uint64(rng.Intn(64))*64, rng.Intn(2) == 0)
	}); n != 0 {
		t.Fatalf("Access allocates %.2f times per call, want 0", n)
	}
}

// BenchmarkHierarchyAccess measures one demand reference through the
// default Table I hierarchy on a 64 MB footprint, a third of them writes,
// so misses and dirty L3 writebacks are part of the mix.
func BenchmarkHierarchyAccess(b *testing.B) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	rng := rand.New(rand.NewSource(1))
	const footprint = 64 << 20
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63n(footprint)) &^ 63
	}
	cores := cfg.Processor.Cores
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&(len(addrs)-1)]
		h.Access(i%cores, a, i%3 == 0)
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
	// Small associative levels, so LRU order and set clocks decide victims.
	cfg := config.Default()
	cfg.L1 = config.CacheLevel{SizeBytes: 256, Ways: 2, LineBytes: 64, HitLatency: 2, MSHRs: 4}
	cfg.L2 = config.CacheLevel{SizeBytes: 512, Ways: 2, LineBytes: 64, HitLatency: 6, MSHRs: 4}
	cfg.L3 = config.CacheLevel{SizeBytes: 1024, Ways: 4, LineBytes: 64, HitLatency: 20, MSHRs: 4, Shared: true}
	h := NewHierarchy(cfg)
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
	cp := h.Clone()
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
