package pfbuffer

import (
	"slices"
	"testing"
)

// TestPoisonedFetchesExcludedFromAccuracy is the regression test for the
// poisoned-row accounting fix: a fault-poisoned fetch is discarded before
// insertion, so it must not dilute RowAccuracy or LineAccuracy — it is
// counted separately in RowsPoisoned/LinesPoisoned.
func TestPoisonedFetchesExcludedFromAccuracy(t *testing.T) {
	const lines = 16
	b := New(4, lines, UtilRecency)
	control := New(4, lines, UtilRecency)

	feed := func(buf *Buffer) {
		buf.Insert(RowID{Bank: 0, Row: 1}, 0, 0)
		for l := 0; l < lines; l++ { // fully consumed row
			buf.Lookup(RowID{Bank: 0, Row: 1}, l, false, 100)
		}
		buf.Insert(RowID{Bank: 0, Row: 2}, 0, 0) // never referenced
		buf.Flush()
	}
	feed(b)
	feed(control)
	for i := 0; i < 3; i++ {
		b.NotePoisoned()
	}

	got, want := b.Stats(), control.Stats()
	if got.RowsPoisoned != 3 || got.LinesPoisoned != 3*lines {
		t.Errorf("poison counters = %d rows / %d lines, want 3 / %d",
			got.RowsPoisoned, got.LinesPoisoned, 3*lines)
	}
	if got.Inserts != want.Inserts {
		t.Errorf("Inserts = %d, want %d (poisoned fetches must not count as inserts)",
			got.Inserts, want.Inserts)
	}
	if ra, wra := got.RowAccuracy(), want.RowAccuracy(); ra != wra {
		t.Errorf("RowAccuracy = %v, want %v (unchanged by poisoning)", ra, wra)
	}
	if la, wla := got.LineAccuracy(lines), want.LineAccuracy(lines); la != wla {
		t.Errorf("LineAccuracy = %v, want %v (unchanged by poisoning)", la, wla)
	}
	if wra := want.RowAccuracy(); wra != 0.5 {
		t.Fatalf("control RowAccuracy = %v, want 0.5 (test setup broken)", wra)
	}
}

// TestEvictionLedgerClassification: every row leaving the buffer —
// through replacement, drop and Flush alike — reports the Used and Late
// flags its efficacy verdict is drawn from (the vault controller turns
// them into ledger outcomes; see the vault package's ledger test).
func TestEvictionLedgerClassification(t *testing.T) {
	b := New(2, 4, LRU)
	var evs []Eviction

	// Row 1: used before any queued demand (timely, via drop).
	b.Insert(RowID{Row: 1}, 0, 0)
	b.Lookup(RowID{Row: 1}, 0, false, 10)
	ev, _ := b.drop(RowID{Row: 1})
	evs = append(evs, ev)

	// Row 2: a demand was queued when it landed (late, via drop).
	b.Insert(RowID{Row: 2}, 0, 0)
	b.MarkLate(RowID{Row: 2})
	b.Lookup(RowID{Row: 2}, 1, false, 20)
	ev, _ = b.drop(RowID{Row: 2})
	evs = append(evs, ev)

	// Rows 3 and 4 fill the two-entry buffer unused; row 5 forces one
	// replacement eviction and Flush drains the remaining two.
	b.Insert(RowID{Row: 3}, 0, 0)
	b.Insert(RowID{Row: 4}, 0, 0)
	if ev, ok := b.Insert(RowID{Row: 5}, 0, 0); ok {
		evs = append(evs, ev)
	}
	evs = append(evs, b.Flush()...)

	want := []Eviction{
		{ID: RowID{Row: 1}, Used: true, Util: 1},
		{ID: RowID{Row: 2}, Used: true, Util: 1, Late: true},
		{ID: RowID{Row: 3}},
		{ID: RowID{Row: 4}},
		{ID: RowID{Row: 5}},
	}
	if !slices.Equal(evs, want) {
		t.Fatalf("evictions =\n%+v\nwant\n%+v", evs, want)
	}
	if got := b.Stats().Evictions; got != uint64(len(want)) {
		t.Errorf("buffer counted %d evictions, want %d", got, len(want))
	}
}

// TestMarkLateAbsentRow: marking a row that is not resident is a no-op.
func TestMarkLateAbsentRow(t *testing.T) {
	b := New(2, 4, LRU)
	b.MarkLate(RowID{Row: 9})
	b.Insert(RowID{Row: 1}, 0, 0)
	b.Lookup(RowID{Row: 1}, 0, false, 5)
	evs := b.Flush()
	if len(evs) != 1 || !evs[0].Used || evs[0].Late {
		t.Errorf("flushed %+v, want one used, timely row (MarkLate on absent row leaked)", evs)
	}
}
