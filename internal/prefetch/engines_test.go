package prefetch

import (
	"reflect"
	"strings"
	"testing"

	"camps/internal/config"
	"camps/internal/dram"
	"camps/internal/pfbuffer"
)

type fakeQueue map[[2]int64]int

func (q fakeQueue) PendingReadsForRow(bank int, row int64) int {
	return q[[2]int64{int64(bank), row}]
}

func testCtx(q QueueView) Context {
	return Context{Banks: 16, LinesPerRow: 16, RowsPerBank: 8192, Queue: q}
}

func TestSchemeStringsAndParse(t *testing.T) {
	names := []string{"BASE", "BASE-HIT", "MMD", "CAMPS", "CAMPS-MOD"}
	for i, s := range Schemes() {
		if s.String() != names[i] {
			t.Errorf("scheme %d = %q, want %q", i, s.String(), names[i])
		}
		got, err := ParseScheme(names[i])
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", names[i], got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("ParseScheme accepted bogus name")
	}
	if Scheme(42).String() == "" {
		t.Error("unknown scheme produced empty string")
	}
}

// TestSchemeTable pins the closed scheme table: Scheme values are
// exported as integers and pinned by the goldens, so each index keeps its
// name, aliases and buffer policy, and no spelling may name two engines.
func TestSchemeTable(t *testing.T) {
	want := []struct {
		s       Scheme
		name    string
		aliases []string
		policy  pfbuffer.Policy
	}{
		{Base, "BASE", nil, pfbuffer.LRU},
		{BaseHit, "BASE-HIT", nil, pfbuffer.LRU},
		{MMD, "MMD", nil, pfbuffer.LRU},
		{CAMPS, "CAMPS", nil, pfbuffer.LRU},
		{CAMPSMOD, "CAMPS-MOD", nil, pfbuffer.UtilRecency},
		{None, "NONE", nil, pfbuffer.LRU},
		{ASD, "ASD", nil, pfbuffer.LRU},
		{GHB, "ghb", nil, pfbuffer.LRU},
		{SISB, "sisb", nil, pfbuffer.LRU},
		{BestOffset, "bestoffset", []string{"best-offset"}, pfbuffer.LRU},
		{Hybrid, "hybrid", nil, pfbuffer.LRU},
	}
	if len(schemes) != len(want) || len(AllSchemes()) != len(want) || len(Names()) != len(want) {
		t.Fatalf("table has %d entries (AllSchemes %d, Names %d), want %d",
			len(schemes), len(AllSchemes()), len(Names()), len(want))
	}
	seen := map[string]Scheme{}
	for i, w := range want {
		if int(w.s) != i {
			t.Fatalf("%s = %d, want %d", w.name, int(w.s), i)
		}
		d := Describe(w.s)
		if d.Name != w.name || w.s.String() != w.name || Names()[i] != w.name {
			t.Errorf("scheme %d named %q (String %q, Names %q), want %q",
				i, d.Name, w.s.String(), Names()[i], w.name)
		}
		if !reflect.DeepEqual(d.Aliases, w.aliases) {
			t.Errorf("%s aliases = %q, want %q", w.name, d.Aliases, w.aliases)
		}
		if d.Policy != w.policy {
			t.Errorf("%s policy = %v, want %v", w.name, d.Policy, w.policy)
		}
		if (d.New == nil) != (w.s == Hybrid) {
			t.Errorf("%s factory set = %v; only the hybrid is built by New itself", w.name, d.New != nil)
		}
		if New(w.s, config.Default(), testCtx(fakeQueue{})) == nil {
			t.Errorf("New(%s) returned nil", w.name)
		}
		for _, spelling := range append([]string{w.name}, w.aliases...) {
			key := strings.ToLower(spelling)
			if prev, dup := seen[key]; dup {
				t.Errorf("spelling %q names both %v and %v", spelling, prev, w.s)
			}
			seen[key] = w.s
			for _, in := range []string{spelling, strings.ToLower(spelling), strings.ToUpper(spelling)} {
				if got, err := ParseScheme(in); err != nil || got != w.s {
					t.Errorf("ParseScheme(%q) = %v, %v; want %v", in, got, err, w.s)
				}
			}
		}
	}
	if got := Schemes(); !reflect.DeepEqual(got, []Scheme{Base, BaseHit, MMD, CAMPS, CAMPSMOD}) {
		t.Errorf("paper set = %v", got)
	}
	if Scheme(-1).Valid() || Scheme(len(want)).Valid() || !Hybrid.Valid() {
		t.Error("Valid disagrees with the table bounds")
	}
}

func TestSchemeBufferPolicy(t *testing.T) {
	for _, s := range Schemes() {
		want := pfbuffer.LRU
		if s == CAMPSMOD {
			want = pfbuffer.UtilRecency
		}
		if got := Describe(s).Policy; got != want {
			t.Errorf("%v buffer policy = %v, want %v", s, got, want)
		}
	}
}

func TestNewConstructsEveryScheme(t *testing.T) {
	cfg := config.Default()
	for _, s := range AllSchemes() {
		if e := New(s, cfg, testCtx(fakeQueue{})); e == nil {
			t.Errorf("New(%v) returned nil", s)
		}
	}
}

func TestBaseFetchesEveryDemand(t *testing.T) {
	e := &baseEngine{}
	for _, state := range []dram.RowState{dram.RowHit, dram.RowMiss, dram.RowConflict} {
		f := e.OnDemandServed(Request{Bank: 3, Row: 7, Line: 2}, state, dram.NoRow)
		if len(f) != 1 || f[0].Bank != 3 || f[0].Row != 7 || !f[0].CloseAfter {
			t.Fatalf("BASE on %v returned %+v", state, f)
		}
	}
}

func TestBaseHitNeedsTwoPending(t *testing.T) {
	q := fakeQueue{}
	e := newBaseHit(testCtx(q))
	req := Request{Bank: 1, Row: 5, Line: 0}
	if f := e.OnDemandServed(req, dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("BASE-HIT fetched with 0 pending: %+v", f)
	}
	q[[2]int64{1, 5}] = 1
	if f := e.OnDemandServed(req, dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("BASE-HIT fetched with 1 pending: %+v", f)
	}
	q[[2]int64{1, 5}] = 2
	f := e.OnDemandServed(req, dram.RowHit, dram.NoRow)
	if len(f) != 1 || f[0].Row != 5 || f[0].CloseAfter {
		t.Fatalf("BASE-HIT with 2 pending returned %+v, want open-row fetch", f)
	}
}

func TestBaseHitNilQueue(t *testing.T) {
	e := newBaseHit(testCtx(nil))
	if f := e.OnDemandServed(Request{}, dram.RowHit, dram.NoRow); f != nil {
		t.Fatal("BASE-HIT with nil queue should not fetch")
	}
}

func TestCAMPSUtilizationTrigger(t *testing.T) {
	cfg := config.Default()
	e := newCAMPS(cfg.CAMPS, testCtx(nil))
	req := func(line int) Request { return Request{Bank: 2, Row: 11, Line: line} }

	// First access: a miss (row just opened, not in CT) -> tracked, no fetch.
	if f := e.OnDemandServed(req(0), dram.RowMiss, dram.NoRow); len(f) != 0 {
		t.Fatalf("fetch on first access: %+v", f)
	}
	// Three more distinct lines as row hits; the 4th distinct line reaches
	// the threshold of 4 and triggers the fetch.
	if f := e.OnDemandServed(req(1), dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("premature fetch at util 2: %+v", f)
	}
	if f := e.OnDemandServed(req(2), dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("premature fetch at util 3: %+v", f)
	}
	f := e.OnDemandServed(req(3), dram.RowHit, dram.NoRow)
	if len(f) != 1 || f[0].Row != 11 || f[0].Bank != 2 || !f[0].CloseAfter {
		t.Fatalf("no fetch at util 4: %+v", f)
	}
	// RUT entry cleared after the fetch.
	if u := newRUT(16).entries[2].util(); u != 0 {
		t.Fatalf("fresh RUT should be 0, got %d", u)
	}
	if e.rut.entries[2].util() != 0 {
		t.Fatalf("RUT not cleared after fetch: util=%d", e.rut.entries[2].util())
	}
}

func TestCAMPSRepeatedLinesDoNotTrigger(t *testing.T) {
	cfg := config.Default()
	e := newCAMPS(cfg.CAMPS, testCtx(nil))
	req := Request{Bank: 0, Row: 1, Line: 5}
	e.OnDemandServed(req, dram.RowMiss, dram.NoRow)
	for i := 0; i < 10; i++ {
		if f := e.OnDemandServed(req, dram.RowHit, dram.NoRow); len(f) != 0 {
			t.Fatalf("same-line hits triggered fetch: %+v", f)
		}
	}
}

func TestCAMPSConflictPath(t *testing.T) {
	cfg := config.Default()
	e := newCAMPS(cfg.CAMPS, testCtx(nil))

	// Row 100 opens in bank 0 and is profiled.
	e.OnDemandServed(Request{Bank: 0, Row: 100, Line: 0}, dram.RowMiss, dram.NoRow)
	// Row 200 conflicts with row 100: 100 moves to the CT; 200 not in CT,
	// so no fetch yet.
	if f := e.OnDemandServed(Request{Bank: 0, Row: 200, Line: 0}, dram.RowConflict, 100); len(f) != 0 {
		t.Fatalf("fetch on first conflict: %+v", f)
	}
	if e.ct.size() != 1 {
		t.Fatalf("CT len = %d, want 1", e.ct.size())
	}
	// Row 100 comes back (conflicting with 200): it IS in the CT -> fetch
	// it whole, remove from CT.
	f := e.OnDemandServed(Request{Bank: 0, Row: 100, Line: 3}, dram.RowConflict, 200)
	if len(f) != 1 || f[0].Row != 100 || !f[0].CloseAfter {
		t.Fatalf("conflict-prone row not fetched: %+v", f)
	}
	// Row 100 gone from CT; row 200 entered it when displaced.
	if e.ct.size() != 1 {
		t.Fatalf("CT len after fetch = %d, want 1 (row 200)", e.ct.size())
	}
}

func TestCAMPSConflictWithUntrackedDisplacedRow(t *testing.T) {
	cfg := config.Default()
	e := newCAMPS(cfg.CAMPS, testCtx(nil))
	// A conflict whose displaced row was never in the RUT (e.g. opened by a
	// writeback) still lands in the CT via the displacedRow argument.
	e.OnDemandServed(Request{Bank: 1, Row: 50, Line: 0}, dram.RowConflict, 49)
	if e.ct.size() != 1 {
		t.Fatalf("CT len = %d, want 1", e.ct.size())
	}
	f := e.OnDemandServed(Request{Bank: 1, Row: 49, Line: 0}, dram.RowConflict, 50)
	if len(f) != 1 || f[0].Row != 49 {
		t.Fatalf("untracked displaced row not treated as conflict-prone: %+v", f)
	}
}

func TestCAMPSMissAfterCampsFetchIsNotConflictProne(t *testing.T) {
	cfg := config.Default()
	e := newCAMPS(cfg.CAMPS, testCtx(nil))
	// Reach the utilization threshold, fetch, bank precharged.
	for i := 0; i < 4; i++ {
		st := dram.RowHit
		if i == 0 {
			st = dram.RowMiss
		}
		e.OnDemandServed(Request{Bank: 0, Row: 7, Line: i}, st, dram.NoRow)
	}
	// New row opens as a plain miss (bank was precharged): no CT entry,
	// so it should be profiled, not fetched.
	if f := e.OnDemandServed(Request{Bank: 0, Row: 8, Line: 0}, dram.RowMiss, dram.NoRow); len(f) != 0 {
		t.Fatalf("plain miss triggered fetch: %+v", f)
	}
}

func TestCAMPSThresholdOneFetchesImmediately(t *testing.T) {
	cfg := config.Default()
	cfg.CAMPS.UtilThreshold = 1
	e := newCAMPS(cfg.CAMPS, testCtx(nil))
	f := e.OnDemandServed(Request{Bank: 0, Row: 3, Line: 0}, dram.RowMiss, dram.NoRow)
	if len(f) != 1 {
		t.Fatalf("threshold-1 engine should fetch on first access: %+v", f)
	}
}

func TestMMDTwoTouchConfirmation(t *testing.T) {
	cfg := config.Default()
	cfg.MMD.TouchThreshold = 2
	e := newMMD(cfg.MMD, testCtx(nil))
	// First distinct line: no fetch yet.
	if f := e.OnDemandServed(Request{Bank: 4, Row: 10, Line: 0}, dram.RowMiss, dram.NoRow); len(f) != 0 {
		t.Fatalf("fetch on first touch: %+v", f)
	}
	// Same line again: still one distinct line, no fetch.
	if f := e.OnDemandServed(Request{Bank: 4, Row: 10, Line: 0}, dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("fetch on repeated line: %+v", f)
	}
	// Second distinct line confirms the row: degree-1 fetch of the row
	// itself, left open (CloseAfter false — MMD is not conflict-aware).
	f := e.OnDemandServed(Request{Bank: 4, Row: 10, Line: 1}, dram.RowHit, dram.NoRow)
	if len(f) != 1 || f[0].Row != 10 || f[0].Bank != 4 || f[0].CloseAfter {
		t.Fatalf("confirmation fetch = %+v, want open-row fetch of row 10", f)
	}
	// Touch history cleared after the fetch.
	if f := e.OnDemandServed(Request{Bank: 4, Row: 10, Line: 2}, dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("immediate re-fetch after trigger: %+v", f)
	}
}

func TestMMDRowChangeRestartsHistory(t *testing.T) {
	cfg := config.Default()
	cfg.MMD.TouchThreshold = 2
	e := newMMD(cfg.MMD, testCtx(nil))
	e.OnDemandServed(Request{Bank: 0, Row: 1, Line: 0}, dram.RowMiss, dram.NoRow)
	// Conflict opens row 2: history restarts, so its first touch cannot
	// trigger even though the RUT slot was half full.
	if f := e.OnDemandServed(Request{Bank: 0, Row: 2, Line: 1}, dram.RowConflict, 1); len(f) != 0 {
		t.Fatalf("fetch after row change: %+v", f)
	}
}

func TestMMDDegreeAdaptation(t *testing.T) {
	cfg := config.Default()
	cfg.MMD.TouchThreshold = 2
	cfg.MMD.EpochRequests = 4
	e := newMMD(cfg.MMD, testCtx(nil))
	if e.degree != 1 {
		t.Fatalf("initial degree = %d, want 1", e.degree)
	}
	if e.EpochRequests() != 4 {
		t.Fatalf("EpochRequests = %d, want 4", e.EpochRequests())
	}
	// An epoch of entirely useful evictions: degree rises.
	e.OnEpoch(EpochStats{UsefulTimely: 6, UsefulLate: 2})
	if e.degree != 2 {
		t.Fatalf("degree after useful epoch = %d, want 2", e.degree)
	}
	// At degree 2, a confirmed row also fetches its successor, precharged
	// after the copy.
	e.OnDemandServed(Request{Bank: 3, Row: 50, Line: 0}, dram.RowMiss, dram.NoRow)
	f := e.OnDemandServed(Request{Bank: 3, Row: 50, Line: 1}, dram.RowHit, dram.NoRow)
	if len(f) != 2 || f[0].Row != 50 || f[1].Row != 51 || !f[1].CloseAfter {
		t.Fatalf("degree-2 fetches = %+v", f)
	}
	// An epoch of useless evictions: degree falls.
	e.OnEpoch(EpochStats{EvictedUnused: 8})
	if e.degree != 1 {
		t.Fatalf("degree after useless epoch = %d, want 1", e.degree)
	}
}

func TestMMDRespectsRowBound(t *testing.T) {
	cfg := config.Default()
	cfg.MMD.TouchThreshold = 2
	cfg.MMD.EpochRequests = 4
	ctx := testCtx(nil)
	ctx.RowsPerBank = 11
	e := newMMD(cfg.MMD, ctx)
	e.degree = 2
	e.OnDemandServed(Request{Bank: 0, Row: 10, Line: 0}, dram.RowMiss, dram.NoRow)
	f := e.OnDemandServed(Request{Bank: 0, Row: 10, Line: 1}, dram.RowHit, dram.NoRow)
	if len(f) != 1 || f[0].Row != 10 {
		t.Fatalf("next-row fetch beyond the last row: %+v", f)
	}
}

func TestMMDZeroDegreeFetchesNothingAndProbes(t *testing.T) {
	cfg := config.Default()
	cfg.MMD.TouchThreshold = 2
	e := newMMD(cfg.MMD, testCtx(nil))
	// Drive accuracy to zero across epochs until degree hits 0.
	for i := 0; i < 10 && e.degree > 0; i++ {
		e.OnEpoch(EpochStats{EvictedUnused: 1})
	}
	if e.degree != 0 {
		t.Fatalf("degree = %d, want 0", e.degree)
	}
	// A zero-degree engine must not fetch even for a confirmed row.
	e.OnDemandServed(Request{Bank: 0, Row: 5, Line: 0}, dram.RowMiss, dram.NoRow)
	if f := e.OnDemandServed(Request{Bank: 0, Row: 5, Line: 1}, dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("zero-degree engine fetched: %+v", f)
	}
	// With no evictions arriving, the next epoch probes back to degree 1.
	e.OnEpoch(EpochStats{})
	if e.degree != 1 {
		t.Fatalf("degree after probe epoch = %d, want 1", e.degree)
	}
}

func TestNoneNeverFetches(t *testing.T) {
	e := newNone()
	for _, state := range []dram.RowState{dram.RowHit, dram.RowMiss, dram.RowConflict} {
		if f := e.OnDemandServed(Request{Bank: 1, Row: 2, Line: 3}, state, dram.NoRow); f != nil {
			t.Fatalf("NONE fetched on %v: %+v", state, f)
		}
	}
}

func TestASDConfirmsAscendingStream(t *testing.T) {
	e := newASD(testCtx(nil))
	// First touch opens the episode.
	if f := e.OnDemandServed(Request{Bank: 0, Row: 9, Line: 0}, dram.RowMiss, dram.NoRow); f != nil {
		t.Fatalf("fetch on episode open: %+v", f)
	}
	// One ascending touch: not confirmed yet.
	if f := e.OnDemandServed(Request{Bank: 0, Row: 9, Line: 1}, dram.RowHit, dram.NoRow); f != nil {
		t.Fatalf("fetch after one ascending touch: %+v", f)
	}
	// Second ascending touch confirms.
	f := e.OnDemandServed(Request{Bank: 0, Row: 9, Line: 2}, dram.RowHit, dram.NoRow)
	if len(f) != 1 || f[0].Row != 9 || f[0].CloseAfter {
		t.Fatalf("confirmation = %+v, want open-row fetch of row 9", f)
	}
}

func TestASDIgnoresNonMonotonicAccess(t *testing.T) {
	e := newASD(testCtx(nil))
	e.OnDemandServed(Request{Bank: 0, Row: 9, Line: 5}, dram.RowMiss, dram.NoRow)
	// Descending and repeated lines never confirm.
	for _, line := range []int{4, 3, 3, 2, 1, 0} {
		if f := e.OnDemandServed(Request{Bank: 0, Row: 9, Line: line}, dram.RowHit, dram.NoRow); f != nil {
			t.Fatalf("non-monotonic access fetched: %+v", f)
		}
	}
}

func TestASDDepthAdaptsToLongEpisodes(t *testing.T) {
	e := newASD(testCtx(nil))
	if e.depth != 1 {
		t.Fatalf("initial depth = %d", e.depth)
	}
	// Feed asdEpoch long episodes (full 16-line sweeps).
	for ep := 0; ep < asdEpoch+1; ep++ {
		row := int64(ep)
		e.OnDemandServed(Request{Bank: 0, Row: row, Line: 0}, dram.RowMiss, dram.NoRow)
		for l := 1; l < 16; l++ {
			e.OnDemandServed(Request{Bank: 0, Row: row, Line: l}, dram.RowHit, dram.NoRow)
		}
	}
	if e.depth != 2 {
		t.Fatalf("depth after long episodes = %d, want 2", e.depth)
	}
	// At depth 2 a confirmation also fetches the successor row.
	e.OnDemandServed(Request{Bank: 3, Row: 100, Line: 0}, dram.RowMiss, dram.NoRow)
	e.OnDemandServed(Request{Bank: 3, Row: 100, Line: 1}, dram.RowHit, dram.NoRow)
	f := e.OnDemandServed(Request{Bank: 3, Row: 100, Line: 2}, dram.RowHit, dram.NoRow)
	if len(f) != 2 || f[1].Row != 101 || !f[1].CloseAfter {
		t.Fatalf("depth-2 fetches = %+v", f)
	}
	// Feed short episodes: depth falls back to 1.
	for ep := 0; ep < 2*asdEpoch+1; ep++ {
		row := int64(1000 + ep)
		e.OnDemandServed(Request{Bank: 1, Row: row, Line: 0}, dram.RowConflict, row-1)
		e.OnDemandServed(Request{Bank: 1, Row: row, Line: 1}, dram.RowHit, dram.NoRow)
	}
	if e.depth != 1 {
		t.Fatalf("depth after short episodes = %d, want 1", e.depth)
	}
}

func TestAllSchemesIncludesExtensions(t *testing.T) {
	all := AllSchemes()
	if len(all) != 11 {
		t.Fatalf("AllSchemes = %v", all)
	}
	for _, tc := range []struct {
		name string
		want Scheme
	}{
		{"NONE", None}, {"ASD", ASD}, {"ghb", GHB}, {"sisb", SISB},
		{"bestoffset", BestOffset}, {"best-offset", BestOffset}, {"hybrid", Hybrid},
	} {
		if s, err := ParseScheme(tc.name); err != nil || s != tc.want {
			t.Fatalf("ParseScheme(%q) = %v, %v; want %v", tc.name, s, err, tc.want)
		}
	}
	// The paper's figure set stays at five.
	if len(Schemes()) != 5 {
		t.Fatalf("Schemes() = %v", Schemes())
	}
}
