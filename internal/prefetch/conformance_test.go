package prefetch

// Conformance suite: every registered engine — builtin or third-party —
// must satisfy the same contract the vault controller relies on. The
// suite runs New() against the full registry, so registering an engine
// is enough to put it under test.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"camps/internal/config"
	"camps/internal/dram"
	"camps/internal/pfbuffer"
)

// confStream is a deterministic xorshift64* generator; no math/rand so the
// suite stays reproducible and simdeterminism-clean.
type confStream struct{ s uint64 }

func (r *confStream) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s * 0x2545f4914f6cdd1d
}

// drive feeds engine e a fixed pseudo-random mix of demand serves, buffer
// hits, and evictions (including evictions of rows the engine never
// fetched, which the controller emits for poisoned fetches) and returns
// the concatenated fetch log.
func drive(e Engine, ctx Context, seed uint64, events int) []Fetch {
	rng := confStream{s: seed}
	var log []Fetch
	for i := 0; i < events; i++ {
		req := Request{
			Bank:  int(rng.next() % uint64(ctx.Banks)),
			Row:   int64(rng.next() % uint64(ctx.RowsPerBank)),
			Line:  int(rng.next() % uint64(ctx.LinesPerRow)),
			Write: rng.next()%8 == 0,
		}
		switch rng.next() % 16 {
		case 0:
			e.OnBufferHit(req)
		case 1:
			// Eviction of a row this engine may never have fetched.
			e.OnEviction(pfbuffer.Eviction{
				ID:    pfbuffer.RowID{Bank: req.Bank, Row: req.Row},
				Used:  rng.next()%2 == 0,
				Late:  rng.next()%4 == 0,
				Dirty: rng.next()%4 == 0,
				Util:  int(rng.next() % 16),
			})
		default:
			states := [...]dram.RowState{dram.RowHit, dram.RowHit, dram.RowMiss, dram.RowConflict}
			st := states[rng.next()%4]
			displaced := dram.NoRow
			if st == dram.RowConflict {
				displaced = int64(rng.next() % uint64(ctx.RowsPerBank))
			}
			log = append(log, e.OnDemandServed(req, st, displaced)...)
		}
		if eo, ok := e.(EpochObserver); ok && i%257 == 256 {
			eo.OnEpoch(EpochStats{
				Demands:       200,
				BufferHits:    rng.next() % 50,
				FetchesIssued: rng.next() % 40,
				UsefulTimely:  rng.next() % 20,
				UsefulLate:    rng.next() % 5,
				EvictedUnused: rng.next() % 20,
			})
		}
	}
	return log
}

func TestEngineConformance(t *testing.T) {
	for _, s := range AllSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := config.Default()
			ctx := testCtx(fakeQueue{})
			e := New(s, cfg, ctx)

			// Fetches stay within the vault's geometry and carry a valid
			// touched-line bitmap.
			lineMask := uint64(1)<<uint(ctx.LinesPerRow) - 1
			log := drive(e, ctx, 0x9e3779b97f4a7c15, 4000)
			for _, f := range log {
				if f.Bank < 0 || f.Bank >= ctx.Banks {
					t.Fatalf("fetch bank %d out of [0,%d)", f.Bank, ctx.Banks)
				}
				if f.Row < 0 || f.Row >= ctx.RowsPerBank {
					t.Fatalf("fetch row %d out of [0,%d)", f.Row, ctx.RowsPerBank)
				}
				if f.Touched&^lineMask != 0 {
					t.Fatalf("fetch touched bitmap %#x exceeds %d lines", f.Touched, ctx.LinesPerRow)
				}
			}
			if s == None && len(log) != 0 {
				t.Fatalf("NONE issued %d fetches", len(log))
			}

			// Same seed, fresh engine: identical fetch log.
			again := drive(New(s, cfg, ctx), ctx, 0x9e3779b97f4a7c15, 4000)
			if !reflect.DeepEqual(log, again) {
				t.Fatalf("engine is non-deterministic: %d vs %d fetches", len(log), len(again))
			}

			// An epoch observer must advertise a positive cadence.
			if eo, ok := e.(EpochObserver); ok && eo.EpochRequests() <= 0 {
				t.Fatalf("EpochRequests() = %d, want > 0", eo.EpochRequests())
			}
		})
	}
}

// rowStream draws demands with row locality and row-buffer outcomes kept
// consistent with a per-bank open row, so the utilization, conflict and
// history triggers all fire (uniformly random rows almost never repeat).
type rowStream struct {
	rng  confStream
	ctx  Context
	open []int64
}

func newRowStream(seed uint64, ctx Context) *rowStream {
	r := &rowStream{rng: confStream{s: seed}, ctx: ctx, open: make([]int64, ctx.Banks)}
	for i := range r.open {
		r.open[i] = dram.NoRow
	}
	return r
}

// demand returns the next request with its outcome and displaced row.
// Three in four demands stay on the bank's open row; the rest pick one of
// 64 rows.
func (r *rowStream) demand() (Request, dram.RowState, int64) {
	req := Request{
		Bank: int(r.rng.next() % uint64(r.ctx.Banks)),
		Line: int(r.rng.next() % uint64(r.ctx.LinesPerRow)),
	}
	open := &r.open[req.Bank]
	if *open != dram.NoRow && r.rng.next()%4 != 0 {
		req.Row = *open
	} else {
		req.Row = int64(r.rng.next() % 64)
	}
	st, displaced := dram.RowConflict, *open
	switch *open {
	case req.Row:
		st, displaced = dram.RowHit, dram.NoRow
	case dram.NoRow:
		st = dram.RowMiss
	}
	*open = req.Row
	return req, st, displaced
}

// busyQueue reports two queued reads for every row, so BASE-HIT's trigger
// fires on every demand and its fetch path is exercised too.
type busyQueue struct{}

func (busyQueue) PendingReadsForRow(int, int64) int { return 2 }

// mallocs returns the heap allocations made by n calls of f. Unlike
// testing.AllocsPerRun, which floors the per-call average, it reports the
// total, so an engine that allocates on only some calls still shows.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestEngineSteadyStateAllocatesNothing pins the hot-path contract the
// vault controller relies on: once warmed, no registered engine allocates
// on any call. OnDemandServed results are engine-owned buffers reused
// from call to call, not fresh slices.
func TestEngineSteadyStateAllocatesNothing(t *testing.T) {
	for _, s := range AllSchemes() {
		t.Run(s.String(), func(t *testing.T) {
			ctx := testCtx(busyQueue{})
			e := New(s, config.Default(), ctx)
			drive(e, ctx, 0x9e3779b97f4a7c15, 4000)
			// Accurate-epoch feedback keeps the adaptive engines (MMD's
			// degree, hybrid's election) fetching.
			demands := newRowStream(0x2545f4914f6cdd1d, ctx)
			eo, _ := e.(EpochObserver)
			calls := 0
			serve := func() {
				if calls++; eo != nil && calls%257 == 0 {
					eo.OnEpoch(EpochStats{Demands: 257, UsefulTimely: 40, EvictedUnused: 2})
				}
				e.OnDemandServed(demands.demand())
			}
			for i := 0; i < 4000; i++ {
				serve()
			}
			if n := mallocs(4000, serve); n != 0 {
				t.Errorf("4000 OnDemandServed calls allocate %d times, want 0", n)
			}
			if n := mallocs(4000, func() {
				req, _, _ := demands.demand()
				e.OnBufferHit(req)
			}); n != 0 {
				t.Errorf("4000 OnBufferHit calls allocate %d times, want 0", n)
			}
			if n := mallocs(4000, func() {
				req, _, _ := demands.demand()
				e.OnEviction(pfbuffer.Eviction{ID: req.RowID(), Used: true, Util: 4})
			}); n != 0 {
				t.Errorf("4000 OnEviction calls allocate %d times, want 0", n)
			}
		})
	}
}

// BenchmarkOnDemandServed measures one demand notification per registered
// engine on the row-local stream, with epoch feedback at each engine's own
// cadence as the vault controller delivers it.
func BenchmarkOnDemandServed(b *testing.B) {
	type demand struct {
		req       Request
		st        dram.RowState
		displaced int64
	}
	ctx := testCtx(busyQueue{})
	stream := newRowStream(0x9e3779b97f4a7c15, ctx)
	demands := make([]demand, 1<<14)
	for i := range demands {
		d := &demands[i]
		d.req, d.st, d.displaced = stream.demand()
	}
	for _, s := range AllSchemes() {
		b.Run(s.String(), func(b *testing.B) {
			e := New(s, config.Default(), ctx)
			eo, _ := e.(EpochObserver)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if eo != nil && i%eo.EpochRequests() == 0 {
					eo.OnEpoch(EpochStats{Demands: uint64(eo.EpochRequests())})
				}
				d := &demands[i&(len(demands)-1)]
				e.OnDemandServed(d.req, d.st, d.displaced)
			}
		})
	}
}

// TestBorrowedResultsArePerInstance checks the other half of the borrowed
// OnDemandServed contract: each engine instance owns its result buffer.
// Two instances fed the same stream return equal directives, and one
// instance's call never overwrites the other's result.
func TestBorrowedResultsArePerInstance(t *testing.T) {
	for _, s := range AllSchemes() {
		t.Run(s.String(), func(t *testing.T) {
			ctx := testCtx(busyQueue{})
			e1, e2 := New(s, config.Default(), ctx), New(s, config.Default(), ctx)
			demands := newRowStream(0x9e3779b97f4a7c15, ctx)
			fetched := 0
			for i := 0; i < 4000; i++ {
				req, st, displaced := demands.demand()
				a := e1.OnDemandServed(req, st, displaced)
				held := append([]Fetch(nil), a...)
				b := e2.OnDemandServed(req, st, displaced)
				if a != nil && len(a) == 0 {
					t.Fatalf("call %d: empty non-nil result; no directives must be nil", i)
				}
				if !reflect.DeepEqual(a, held) {
					t.Fatalf("call %d: second instance overwrote the first's result", i)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("call %d: instances diverged: %v vs %v", i, a, b)
				}
				if len(a) > 0 && &a[0] == &b[0] {
					t.Fatalf("call %d: instances share a result backing array", i)
				}
				fetched += len(a)
				if i%257 == 256 {
					for _, e := range []Engine{e1, e2} {
						if eo, ok := e.(EpochObserver); ok {
							eo.OnEpoch(EpochStats{Demands: 257, UsefulTimely: 10, EvictedUnused: 5})
						}
					}
				}
			}
			if s != None && fetched == 0 {
				t.Fatal("stream never produced a directive; the check is vacuous")
			}
		})
	}
}

// recordingEngine remembers the slice its wrapped engine last returned.
type recordingEngine struct {
	Engine
	last []Fetch
}

func (r *recordingEngine) OnDemandServed(req Request, st dram.RowState, displaced int64) []Fetch {
	r.last = r.Engine.OnDemandServed(req, st, displaced)
	return r.last
}

// TestHybridReturnsWinnerResult checks that hybrid hands back exactly the
// current winner's borrowed slice (no copy, no merge) and nothing while
// no candidate is winning.
func TestHybridReturnsWinnerResult(t *testing.T) {
	ctx := testCtx(busyQueue{})
	h := New(Hybrid, config.Default(), ctx).(*hybridEngine)
	recs := make([]*recordingEngine, len(h.cands))
	for i := range h.cands {
		recs[i] = &recordingEngine{Engine: h.cands[i].eng}
		h.cands[i].eng = recs[i]
	}
	demands := newRowStream(0x9e3779b97f4a7c15, ctx)
	rng := confStream{s: 0x2545f4914f6cdd1d}
	fetched := 0
	for i := 0; i < 20000; i++ {
		w := h.winner
		out := h.OnDemandServed(demands.demand())
		if w < 0 {
			if out != nil {
				t.Fatalf("call %d: %d directives with no winner", i, len(out))
			}
			continue
		}
		want := recs[w].last
		if len(out) != len(want) || (len(out) > 0 && &out[0] != &want[0]) {
			t.Fatalf("call %d: hybrid returned %v, winner %s returned %v",
				i, out, h.cands[w].name, want)
		}
		fetched += len(out)
		if i%h.EpochRequests() == h.EpochRequests()-1 {
			h.OnEpoch(EpochStats{Demands: uint64(h.EpochRequests()),
				UsefulTimely: rng.next() % 20, EvictedUnused: rng.next() % 20})
		}
	}
	if fetched == 0 {
		t.Fatal("hybrid never issued a directive; the check is vacuous")
	}
}

// TestEvictionOfNeverFetchedRowDoesNotPanic pins the poison-fetch contract:
// the controller reports evictions (with only the RowID populated) for rows
// an engine never asked for, and no engine may panic on them.
func TestEvictionOfNeverFetchedRowDoesNotPanic(t *testing.T) {
	for _, s := range AllSchemes() {
		e := New(s, config.Default(), testCtx(fakeQueue{}))
		for i := 0; i < 64; i++ {
			e.OnEviction(pfbuffer.Eviction{ID: pfbuffer.RowID{Bank: i % 16, Row: int64(i * 31)}})
		}
	}
}

// TestRegistryExtension registers a throwaway engine and checks that every
// registry-driven surface — name parsing, listing, knobs, New — picks it up
// without further wiring. It deliberately uses the public extension path.
func TestRegistryExtension(t *testing.T) {
	name := fmt.Sprintf("conformance-probe-%d", len(Names()))
	s := Register(name, Descriptor{
		Name:   name,
		Doc:    "test-only probe engine",
		Policy: pfbuffer.LRU,
		Knobs: []Knob{{Name: name + ".knob", Help: "probe knob",
			Apply: func(cfg *config.Config, v int64) {}}},
		New: func(cfg config.Config, ctx Context) Engine { return newNone() },
	})
	got, err := ParseScheme(name)
	if err != nil || got != s {
		t.Fatalf("ParseScheme(%q) = %v, %v", name, got, err)
	}
	if s.String() != name {
		t.Fatalf("String() = %q, want %q", s.String(), name)
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() does not list %q", name)
	}
	found = false
	for _, k := range EngineKnobs() {
		if k.Name == name+".knob" {
			found = true
		}
	}
	if !found {
		t.Fatal("EngineKnobs() does not list the probe knob")
	}
	if e := New(s, config.Default(), testCtx(nil)); e == nil {
		t.Fatal("New returned nil for registered probe")
	}
	// Probe stays out of the paper figure set.
	for _, ps := range Schemes() {
		if ps == s {
			t.Fatal("probe leaked into Schemes()")
		}
	}
}

func TestRegisterRejectsDuplicatesAndNilFactory(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate name", func() {
		Register("mmd", Descriptor{Name: "mmd",
			New: func(config.Config, Context) Engine { return newNone() }})
	})
	mustPanic("duplicate alias", func() {
		Register("probe-alias-dup", Descriptor{Name: "probe-alias-dup",
			Aliases: []string{"Best-Offset"},
			New:     func(config.Config, Context) Engine { return newNone() }})
	})
	mustPanic("nil factory", func() {
		Register("probe-nil-new", Descriptor{Name: "probe-nil-new"})
	})
	mustPanic("empty name", func() {
		Register("", Descriptor{New: func(config.Config, Context) Engine { return newNone() }})
	})
}

func TestParseSchemeErrorListsAllNames(t *testing.T) {
	_, err := ParseScheme("definitely-not-registered")
	if err == nil {
		t.Fatal("ParseScheme accepted an unknown name")
	}
	for _, n := range []string{"BASE", "CAMPS-MOD", "ghb", "sisb", "bestoffset", "hybrid"} {
		if !containsSub(err.Error(), n) {
			t.Fatalf("error %q does not enumerate %q", err, n)
		}
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestValidateConfigRejectsBadHybridCandidates(t *testing.T) {
	cfg := config.Default()
	if err := ValidateConfig(cfg); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cfg.Hybrid.Candidates = []string{"MMD", "nope"}
	if err := ValidateConfig(cfg); err == nil {
		t.Fatal("unknown hybrid candidate accepted")
	}
	cfg.Hybrid.Candidates = []string{"hybrid"}
	if err := ValidateConfig(cfg); err == nil {
		t.Fatal("meta-engine accepted as its own candidate")
	}
}
