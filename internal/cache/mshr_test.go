package cache

import (
	"math/rand"
	"slices"
	"testing"

	"camps/internal/config"
	"camps/internal/sim"
)

// stubMem completes reads after a fixed delay and records them.
type stubMem struct {
	eng    *sim.Engine
	lat    sim.Time
	reads  []uint64
	writes []uint64
}

func (s *stubMem) ReadLine(addr uint64, done func(at sim.Time)) {
	s.reads = append(s.reads, addr)
	at := s.eng.Now() + s.lat
	s.eng.At(at, func() { done(at) })
}

func (s *stubMem) WriteLine(addr uint64) { s.writes = append(s.writes, addr) }

func TestMSHRCoalescesSameLine(t *testing.T) {
	eng := sim.NewEngine()
	mem := &stubMem{eng: eng, lat: 100}
	m := NewMSHRFile(eng, mem, 4)
	got := 0
	for i := 0; i < 3; i++ {
		m.ReadLine(0x40, func(sim.Time) { got++ })
	}
	eng.Run()
	if len(mem.reads) != 1 {
		t.Fatalf("backend saw %d reads, want 1 (coalesced)", len(mem.reads))
	}
	if got != 3 {
		t.Fatalf("%d waiters completed, want 3", got)
	}
	if m.Coalesced() != 2 || m.issued.Value() != 1 {
		t.Fatalf("coalesced=%d issued=%d", m.Coalesced(), m.issued.Value())
	}
}

func TestMSHRBoundsOutstanding(t *testing.T) {
	eng := sim.NewEngine()
	mem := &stubMem{eng: eng, lat: 1000}
	m := NewMSHRFile(eng, mem, 2)
	done := 0
	for i := 0; i < 6; i++ {
		m.ReadLine(uint64(i)*64, func(sim.Time) { done++ })
	}
	// Only 2 issued immediately; 4 stalled.
	if len(m.live) != 2 || m.Stalls() != 4 {
		t.Fatalf("outstanding=%d stalls=%d", len(m.live), m.Stalls())
	}
	eng.Run()
	if done != 6 {
		t.Fatalf("completed %d/6", done)
	}
	if len(mem.reads) != 6 {
		t.Fatalf("backend reads = %d, want 6", len(mem.reads))
	}
	if m.peak != 2 {
		t.Fatalf("peak = %d, want 2 (the bound)", m.peak)
	}
}

func TestMSHROverflowCoalesces(t *testing.T) {
	eng := sim.NewEngine()
	mem := &stubMem{eng: eng, lat: 100}
	m := NewMSHRFile(eng, mem, 1)
	done := 0
	m.ReadLine(0x00, func(sim.Time) { done++ }) // occupies the single entry
	m.ReadLine(0x40, func(sim.Time) { done++ }) // overflows
	m.ReadLine(0x40, func(sim.Time) { done++ }) // overflows, same line
	eng.Run()
	if done != 3 {
		t.Fatalf("completed %d/3", done)
	}
	// 0x40 issued once: its queued duplicate coalesced at drain time.
	if len(mem.reads) != 2 {
		t.Fatalf("backend reads = %d, want 2", len(mem.reads))
	}
	if m.Coalesced() != 1 {
		t.Fatalf("coalesced = %d, want 1", m.Coalesced())
	}
}

func TestMSHRWritePassThrough(t *testing.T) {
	eng := sim.NewEngine()
	mem := &stubMem{eng: eng, lat: 10}
	m := NewMSHRFile(eng, mem, 1)
	m.WriteLine(0x1000)
	if len(mem.writes) != 1 || mem.writes[0] != 0x1000 {
		t.Fatalf("writes = %v", mem.writes)
	}
}

func TestMSHRValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-entry MSHR accepted")
		}
	}()
	NewMSHRFile(sim.NewEngine(), &stubMem{}, 0)
}

// refMSHR is a reference MSHR file written with a map from each
// outstanding line to its waiters, the structure the file's dense scan
// replaces. It issues to and completes through the same callbacks.
type refMSHR struct {
	entries                 int
	lines                   map[uint64][]func()
	overflow                []refReq
	issued                  []uint64 // every fetch, in issue order
	coalesced, stalls, peak int
}

type refReq struct {
	addr uint64
	done func()
}

func (r *refMSHR) read(addr uint64, done func()) {
	if ws, ok := r.lines[addr]; ok {
		r.lines[addr] = append(ws, done)
		r.coalesced++
		return
	}
	if len(r.lines) >= r.entries {
		r.stalls++
		r.overflow = append(r.overflow, refReq{addr, done})
		return
	}
	r.allocate(addr, done)
}

func (r *refMSHR) allocate(addr uint64, done func()) {
	r.lines[addr] = []func(){done}
	r.issued = append(r.issued, addr)
	r.peak = max(r.peak, len(r.lines))
}

// complete returns addr's data: the line leaves the file, its waiters run
// in arrival order, then the overflow queue drains once.
func (r *refMSHR) complete(addr uint64) {
	ws := r.lines[addr]
	delete(r.lines, addr)
	for _, w := range ws {
		w()
	}
	kept := r.overflow[:0]
	for _, q := range r.overflow {
		switch ws, ok := r.lines[q.addr]; {
		case ok:
			r.lines[q.addr] = append(ws, q.done)
			r.coalesced++
		case len(r.lines) < r.entries:
			r.allocate(q.addr, q.done)
		default:
			kept = append(kept, q)
		}
	}
	r.overflow = kept
}

// pendingMem is a backend that holds every fetch until the test returns
// it, in any order.
type pendingMem struct {
	issued  []uint64
	pending map[uint64]func(at sim.Time)
}

func (p *pendingMem) ReadLine(addr uint64, done func(at sim.Time)) {
	p.issued = append(p.issued, addr)
	p.pending[addr] = done
}

func (p *pendingMem) WriteLine(uint64) {}

// TestMSHRMatchesMapReference drives random ReadLine and completion
// sequences, with entries small enough to overflow and waiters that
// re-enter ReadLine from their callbacks, through an MSHRFile and through
// refMSHR: the fetches issued, the order waiter callbacks run in and every
// counter must agree after every step.
func TestMSHRMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		entries := 1 + rng.Intn(8)
		lines := 2*entries + 1 + rng.Intn(8)
		mem := &pendingMem{pending: map[uint64]func(at sim.Time){}}
		m := NewMSHRFile(sim.NewEngine(), mem, entries)
		ref := &refMSHR{entries: entries, lines: map[uint64][]func(){}}
		var got, want []int // waiter ids in callback order
		next := 0
		// read issues request id to both files. One waiter in four
		// re-enters ReadLine for a random line when its data returns.
		var read func(addr uint64)
		read = func(addr uint64) {
			id, again := next, uint64(0)
			next++
			reenter := rng.Intn(4) == 0
			if reenter {
				again = uint64(rng.Intn(lines)) * 64
			}
			m.ReadLine(addr, func(sim.Time) {
				got = append(got, id)
				if reenter {
					m.ReadLine(again, func(sim.Time) { got = append(got, -id) })
				}
			})
			ref.read(addr, func() {
				want = append(want, id)
				if reenter {
					ref.read(again, func() { want = append(want, -id) })
				}
			})
		}
		for step := 0; step < 400; step++ {
			if len(mem.pending) == 0 || rng.Intn(3) != 0 {
				read(uint64(rng.Intn(lines)) * 64)
			} else {
				var out []uint64
				for a := range mem.pending {
					out = append(out, a)
				}
				slices.Sort(out)
				addr := out[rng.Intn(len(out))]
				done := mem.pending[addr]
				delete(mem.pending, addr)
				done(0)
				ref.complete(addr)
			}
			switch {
			case !slices.Equal(mem.issued, ref.issued):
				t.Fatalf("seed %d step %d: fetches %v, reference %v", seed, step, mem.issued, ref.issued)
			case !slices.Equal(got, want):
				t.Fatalf("seed %d step %d: waiters ran %v, reference %v", seed, step, got, want)
			case int(m.Coalesced()) != ref.coalesced || int(m.Stalls()) != ref.stalls ||
				int(m.issued.Value()) != len(ref.issued) || m.peak != ref.peak ||
				len(m.live) != len(ref.lines):
				t.Fatalf("seed %d step %d: coalesced %d stalls %d issued %d peak %d outstanding %d, reference %d %d %d %d %d",
					seed, step, m.Coalesced(), m.Stalls(), m.issued.Value(), m.peak, len(m.live),
					ref.coalesced, ref.stalls, len(ref.issued), ref.peak, len(ref.lines))
			}
		}
		if ref.coalesced == 0 || ref.stalls == 0 {
			t.Fatalf("seed %d: %d coalesced, %d stalls; the stream does not exercise both", seed, ref.coalesced, ref.stalls)
		}
	}
}

func TestStrideDetectorConfirmsAndPredicts(t *testing.T) {
	d := NewStrideDetector(8, 2, 1<<32)
	base := uint64(0x10000)
	// First two observations train; stride confirmed on the third.
	if p := d.Observe(base); p != nil {
		t.Fatalf("prediction on first touch: %v", p)
	}
	if p := d.Observe(base + 64); p != nil {
		t.Fatalf("prediction before confidence: %v", p)
	}
	p := d.Observe(base + 128)
	if len(p) != 2 || p[0] != base+192 || p[1] != base+256 {
		t.Fatalf("predictions = %v, want next two lines", p)
	}
}

// TestStrideDetectorStopsAtLimit checks that predictions stop below the
// caches' address limit, as they stop at address 0.
func TestStrideDetectorStopsAtLimit(t *testing.T) {
	base := uint64(0x10000)
	d := NewStrideDetector(8, 2, base+256)
	d.Observe(base)
	d.Observe(base + 64)
	if p := d.Observe(base + 128); len(p) != 1 || p[0] != base+192 {
		t.Fatalf("predictions = %v, want only %#x below the limit", p, base+192)
	}
}

func TestStrideDetectorResetsOnRegionChange(t *testing.T) {
	d := NewStrideDetector(8, 1, 1<<32)
	d.Observe(0x1000)
	d.Observe(0x1040)
	d.Observe(0x1080) // confirmed in region 1
	// A different region aliasing the same entry restarts training.
	alias := uint64(0x1000 + 8*4096)
	if p := d.Observe(alias); p != nil {
		t.Fatalf("prediction right after region change: %v", p)
	}
}

func TestStrideDetectorNegativeStride(t *testing.T) {
	d := NewStrideDetector(8, 1, 1<<32)
	// All addresses within one 4 KB region (region-indexed table).
	d.Observe(0x2f00)
	d.Observe(0x2f00 - 64)
	p := d.Observe(0x2f00 - 128)
	if len(p) != 1 || p[0] != 0x2f00-192 {
		t.Fatalf("negative-stride prediction = %v", p)
	}
}

func TestStrideDetectorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad detector params accepted")
		}
	}()
	NewStrideDetector(0, 1, 1<<32)
}

func TestLevelPrefetchUsefulness(t *testing.T) {
	l := tinyLevel(2)
	l.installPrefetched(0)
	if l.prefInstalled.Value() != 1 {
		t.Fatal("install not counted")
	}
	if l.prefUseful.Value() != 0 {
		t.Fatal("useful counted before any hit")
	}
	l.lookup(0, false)
	if l.prefUseful.Value() != 1 {
		t.Fatal("first demand hit not counted as useful")
	}
	l.lookup(0, false)
	if l.prefUseful.Value() != 1 {
		t.Fatal("second hit double-counted usefulness")
	}
}

func TestHierarchyInstallPrefetched(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	wbs := h.InstallPrefetched(0, 0x4000)
	if len(wbs) != 0 {
		t.Fatalf("cold prefetch install wrote back %v", wbs)
	}
	if !h.L2(0).Contains(0x4000) || !h.L3().Contains(0x4000) {
		t.Fatal("prefetched line missing from L2/L3")
	}
	if h.L1(0).Contains(0x4000) {
		t.Fatal("prefetched line leaked into L1")
	}
	// A subsequent demand access hits L2 and counts usefulness there.
	r := h.Access(0, 0x4000, false)
	if r.Level != 2 {
		t.Fatalf("post-prefetch access level = %d, want 2", r.Level)
	}
	if h.L2(0).prefUseful.Value() != 1 {
		t.Fatal("L2 usefulness not counted")
	}
}

// ringMem is a backend that holds up to 64 fetches in flight and
// completes them oldest first, on demand, without allocating.
type ringMem struct {
	done       [64]func(at sim.Time)
	head, tail int
}

func (r *ringMem) ReadLine(_ uint64, done func(at sim.Time)) {
	r.done[r.tail&63] = done
	r.tail++
}

func (r *ringMem) WriteLine(uint64) {}

// completeOldest returns the oldest outstanding fetch's data.
func (r *ringMem) completeOldest() {
	done := r.done[r.head&63]
	r.done[r.head&63] = nil
	r.head++
	done(0)
}

// BenchmarkMSHR measures one ReadLine/complete cycle on a 64-entry file
// kept nearly full: each operation is a primary miss to a new line, which
// searches the 63 outstanding lines and allocates the last free entry,
// then the completion of the oldest fetch, which frees one.
func BenchmarkMSHR(b *testing.B) {
	const entries = 64
	mem := &ringMem{}
	m := NewMSHRFile(sim.NewEngine(), mem, entries)
	done := func(sim.Time) {}
	for i := range entries - 1 {
		m.ReadLine(uint64(i)*64, done)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		m.ReadLine(uint64(i+entries)*64, done)
		mem.completeOldest()
	}
	b.StopTimer()
	if len(m.live) != entries-1 || m.Stalls() != 0 {
		b.Fatalf("outstanding %d, stalls %d; want %d and 0", len(m.live), m.Stalls(), entries-1)
	}
}
