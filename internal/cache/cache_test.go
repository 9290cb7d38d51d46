package cache

import (
	"math/rand"
	"sort"
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

// Property: per-set LRU ranks of valid lines always form a permutation.
func TestLevelLRUPermutationInvariant(t *testing.T) {
	l := tinyLevel(4)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(64)) * 64
		if rng.Intn(2) == 0 {
			l.Lookup(addr, rng.Intn(4) == 0)
		} else {
			l.Install(addr, rng.Intn(4) == 0)
		}
		for set := 0; set < l.Sets(); set++ {
			var ranks []int
			for w := 0; w < l.ways; w++ {
				if l.state[set*l.ways+w]&stValid != 0 {
					ranks = append(ranks, int(l.lru[set*l.ways+w]))
				}
			}
			sort.Ints(ranks)
			for j, r := range ranks {
				if r != j {
					t.Fatalf("set %d LRU ranks not a permutation: %v", set, ranks)
				}
			}
		}
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
