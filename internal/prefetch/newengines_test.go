package prefetch

import (
	"testing"

	"camps/internal/config"
	"camps/internal/dram"
)

func TestGHBIgnoresRowHitsAndFirstActivation(t *testing.T) {
	cfg := config.Default()
	e := newGHB(cfg.GHB, testCtx(nil))
	if f := e.OnDemandServed(Request{Bank: 0, Row: 10}, dram.RowHit, dram.NoRow); f != nil {
		t.Fatalf("ghb fetched on a row hit: %+v", f)
	}
	if f := e.OnDemandServed(Request{Bank: 0, Row: 10}, dram.RowMiss, dram.NoRow); f != nil {
		t.Fatalf("ghb fetched on the first activation (no delta yet): %+v", f)
	}
}

func TestGHBColdDeltaSequentialFallback(t *testing.T) {
	cfg := config.Default()
	cfg.GHB.Degree = 2
	e := newGHB(cfg.GHB, testCtx(nil))
	e.OnDemandServed(Request{Bank: 0, Row: 10}, dram.RowMiss, dram.NoRow)
	f := e.OnDemandServed(Request{Bank: 0, Row: 20}, dram.RowMiss, dram.NoRow)
	if len(f) != 2 || f[0].Row != 21 || f[1].Row != 22 || !f[0].CloseAfter {
		t.Fatalf("cold-delta fallback = %+v, want close-after rows 21,22", f)
	}
}

func TestGHBFallbackRespectsRowBound(t *testing.T) {
	cfg := config.Default()
	cfg.GHB.Degree = 4
	ctx := testCtx(nil)
	ctx.RowsPerBank = 22
	e := newGHB(cfg.GHB, ctx)
	e.OnDemandServed(Request{Bank: 0, Row: 10}, dram.RowMiss, dram.NoRow)
	f := e.OnDemandServed(Request{Bank: 0, Row: 20}, dram.RowMiss, dram.NoRow)
	if len(f) != 1 || f[0].Row != 21 {
		t.Fatalf("fallback crossed RowsPerBank: %+v", f)
	}
}

func TestGHBWidthWalkPredictsHistorySuccessors(t *testing.T) {
	cfg := config.Default()
	cfg.GHB.Width = 2
	cfg.GHB.Degree = 1
	e := newGHB(cfg.GHB, testCtx(nil))
	// A constant delta-2 stream: 10, 12, 14, 16. By the fourth activation
	// the delta-2 chain has a live prior occurrence (12@seq0) whose history
	// successor (14@seq1) the width walk predicts.
	for _, r := range []int64{10, 12, 14} {
		e.OnDemandServed(Request{Bank: 0, Row: r}, dram.RowMiss, dram.NoRow)
	}
	f := e.OnDemandServed(Request{Bank: 0, Row: 16}, dram.RowMiss, dram.NoRow)
	if len(f) != 1 || f[0].Row != 14 || f[0].Bank != 0 {
		t.Fatalf("width walk = %+v, want history successor row 14", f)
	}
}

func TestSISBLearnsTemporalSuccessor(t *testing.T) {
	cfg := config.Default()
	e := newSISB(cfg.SISB, testCtx(nil))
	// Train the pair 5 -> 9 on bank 2, then reactivate 5: the learned
	// successor 9 is predicted. Irregular (non-stride) on purpose.
	e.OnDemandServed(Request{Bank: 2, Row: 5}, dram.RowMiss, dram.NoRow)
	if f := e.OnDemandServed(Request{Bank: 2, Row: 9}, dram.RowMiss, dram.NoRow); f != nil {
		t.Fatalf("prediction before any successor was learned: %+v", f)
	}
	f := e.OnDemandServed(Request{Bank: 2, Row: 5}, dram.RowConflict, 9)
	if len(f) != 1 || f[0].Bank != 2 || f[0].Row != 9 || !f[0].CloseAfter {
		t.Fatalf("learned successor not predicted: %+v", f)
	}
}

func TestSISBChainFollowsDegreeSteps(t *testing.T) {
	cfg := config.Default()
	cfg.SISB.Degree = 3
	e := newSISB(cfg.SISB, testCtx(nil))
	// Teach the chain 1 -> 4 -> 2 -> 8, then reactivate 1.
	for _, r := range []int64{1, 4, 2, 8} {
		e.OnDemandServed(Request{Bank: 0, Row: r}, dram.RowMiss, dram.NoRow)
	}
	f := e.OnDemandServed(Request{Bank: 0, Row: 1}, dram.RowMiss, dram.NoRow)
	if len(f) != 3 || f[0].Row != 4 || f[1].Row != 2 || f[2].Row != 8 {
		t.Fatalf("chain walk = %+v, want rows 4,2,8", f)
	}
}

func TestSISBTableEvictsFIFO(t *testing.T) {
	cfg := config.Default()
	cfg.SISB.TableEntries = 2
	e := newSISB(cfg.SISB, testCtx(nil))
	// The 1,2,3,4 stream trains 1->2, 2->3, 3->4 into a 2-entry table:
	// training 3->4 evicts the oldest pair (1->2), leaving {2->3, 3->4}.
	for _, r := range []int64{1, 2, 3, 4} {
		e.OnDemandServed(Request{Bank: 0, Row: r}, dram.RowMiss, dram.NoRow)
	}
	// Reactivating 3 first trains 4->3 (evicting 2->3, now the oldest),
	// then predicts from the surviving 3->4.
	f := e.OnDemandServed(Request{Bank: 0, Row: 3}, dram.RowMiss, dram.NoRow)
	if len(f) == 0 || f[0].Row != 4 {
		t.Fatalf("young pair lost: %+v", f)
	}
	// Activating 2 updates the known key 3 (3->2, no eviction) and finds
	// its own successor pair 2->3 evicted.
	if f := e.OnDemandServed(Request{Bank: 0, Row: 2}, dram.RowMiss, dram.NoRow); len(f) != 0 {
		t.Fatalf("evicted pair still predicted: %+v", f)
	}
}

func TestBestOffsetLearnsStride(t *testing.T) {
	cfg := config.Default()
	cfg.BestOffset.ScoreMax = 2
	e := newBestOffset(cfg.BestOffset, testCtx(nil))
	// A pure stride-3 activation stream: offset 3 is the first candidate
	// (in round-robin order) whose RR probes keep hitting, so it reaches
	// ScoreMax and is elected.
	for i := int64(0); i < 200 && e.best != 3; i++ {
		e.OnDemandServed(Request{Bank: 0, Row: 3 * i}, dram.RowMiss, dram.NoRow)
	}
	if e.best != 3 {
		t.Fatalf("offset after stride-3 stream = %d, want 3", e.best)
	}
	f := e.OnDemandServed(Request{Bank: 0, Row: 600}, dram.RowMiss, dram.NoRow)
	if len(f) != 1 || f[0].Row != 603 || !f[0].CloseAfter {
		t.Fatalf("elected offset not applied: %+v", f)
	}
}

func TestBestOffsetDisablesOnBadScore(t *testing.T) {
	cfg := config.Default()
	cfg.BestOffset.RoundMax = 1
	e := newBestOffset(cfg.BestOffset, testCtx(nil))
	// Widely scattered activations give no offset any score; after one
	// round the engine turns itself off rather than pollute the buffer.
	for i := int64(0); i < int64(len(boOffsets)); i++ {
		e.OnDemandServed(Request{Bank: 0, Row: 100 * (i + 1) * (i + 1)}, dram.RowMiss, dram.NoRow)
	}
	if e.best != 0 {
		t.Fatalf("offset after scoreless round = %d, want 0 (disabled)", e.best)
	}
	if f := e.OnDemandServed(Request{Bank: 0, Row: 7}, dram.RowMiss, dram.NoRow); len(f) != 0 {
		t.Fatalf("disabled engine fetched: %+v", f)
	}
}

// winner names e's live winner ("" while observing or disabled).
func winner(e *hybridEngine) string {
	if e.winner < 0 {
		return ""
	}
	return e.cands[e.winner].name
}

func TestHybridWarmStartsOnFirstCandidate(t *testing.T) {
	cfg := config.Default()
	e := newHybrid(cfg, testCtx(fakeQueue{}))
	if got := winner(e); got != "MMD" {
		t.Fatalf("warm-start winner = %q, want the first configured candidate (MMD)", got)
	}
	if e.EpochRequests() != cfg.Hybrid.EpochRequests {
		t.Fatalf("EpochRequests = %d, want %d", e.EpochRequests(), cfg.Hybrid.EpochRequests)
	}
}

func TestHybridIssuesOnlyWinnersFetches(t *testing.T) {
	cfg := config.Default()
	cfg.Hybrid.Candidates = []string{"NONE", "BASE"}
	e := newHybrid(cfg, testCtx(nil))
	if got := winner(e); got != "NONE" {
		t.Fatalf("winner = %q, want NONE", got)
	}
	// BASE would fetch every demand, but NONE holds the buffer: nothing is
	// issued while BASE only shadows.
	if f := e.OnDemandServed(Request{Bank: 1, Row: 7}, dram.RowMiss, dram.NoRow); len(f) != 0 {
		t.Fatalf("non-winner's fetches issued: %+v", f)
	}
}

func TestHybridElectsCreditedCandidate(t *testing.T) {
	cfg := config.Default()
	cfg.Hybrid.Candidates = []string{"NONE", "BASE"}
	e := newHybrid(cfg, testCtx(nil))
	// Repeated demands for one row: BASE shadow-predicts the row each time
	// and the next demand credits it, so BASE's shadow accuracy dominates
	// NONE's empty score at the epoch boundary.
	for i := 0; i < 10; i++ {
		e.OnDemandServed(Request{Bank: 0, Row: 42}, dram.RowMiss, dram.NoRow)
	}
	e.OnEpoch(EpochStats{Demands: 10})
	if got := winner(e); got != "BASE" {
		t.Fatalf("winner after credited epoch = %q, want BASE", got)
	}
	f := e.OnDemandServed(Request{Bank: 0, Row: 42}, dram.RowMiss, dram.NoRow)
	if len(f) != 1 || f[0].Row != 42 {
		t.Fatalf("new winner's fetches not issued: %+v", f)
	}
}

// TestHybridCreditsBufferHits checks that the buffer-hit hook credits the
// shadow tables: BASE shadow-predicts each demanded row, and that row's
// next demand hits the buffer instead of a bank. Confirmed that way only,
// BASE wins the election; without the hits it scores below zero.
func TestHybridCreditsBufferHits(t *testing.T) {
	cfg := config.Default()
	cfg.Hybrid.Candidates = []string{"NONE", "BASE"}
	for _, hits := range []bool{false, true} {
		e := newHybrid(cfg, testCtx(nil))
		for r := int64(0); r < 10; r++ {
			e.OnDemandServed(Request{Bank: 0, Row: r}, dram.RowMiss, dram.NoRow)
			if hits {
				e.OnBufferHit(Request{Bank: 0, Row: r, Line: 1})
			}
		}
		e.OnEpoch(EpochStats{Demands: 10})
		want := ""
		if hits {
			want = "BASE"
		}
		if got := winner(e); got != want {
			t.Fatalf("buffer hits %v: winner = %q, want %q", hits, got, want)
		}
	}
}

func TestHybridDisablesWhenNoCandidateScores(t *testing.T) {
	cfg := config.Default()
	cfg.Hybrid.Candidates = []string{"NONE"}
	e := newHybrid(cfg, testCtx(nil))
	// NONE never predicts, so after an epoch no score is positive and the
	// hybrid degrades to issuing nothing (winner -1).
	e.OnEpoch(EpochStats{Demands: 5})
	if got := winner(e); got != "" {
		t.Fatalf("winner with no positive score = %q, want disabled", got)
	}
	if f := e.OnDemandServed(Request{Bank: 0, Row: 3}, dram.RowMiss, dram.NoRow); len(f) != 0 {
		t.Fatalf("disabled hybrid fetched: %+v", f)
	}
}

func TestHybridDefaultCandidatesExcludeMetaAndNone(t *testing.T) {
	cfg := config.Default()
	cfg.Hybrid.Candidates = nil
	e := newHybrid(cfg, testCtx(fakeQueue{}))
	for _, c := range e.cands {
		if c.name == "NONE" || c.name == "hybrid" {
			t.Fatalf("default candidate set includes %q", c.name)
		}
	}
	if len(e.cands) < 9 {
		t.Fatalf("default candidate set too small: %d", len(e.cands))
	}
}
