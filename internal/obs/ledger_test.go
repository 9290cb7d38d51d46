package obs

import (
	"reflect"
	"testing"
)

// TestLedgerRecordAndSummary: outcomes accumulate per engine and per
// vault, and the summary elides vaults with nothing classified.
func TestLedgerRecordAndSummary(t *testing.T) {
	l := newPrefetchLedger("CAMPS-MOD")
	l.Record(0, UsefulTimely)
	l.Record(0, UsefulTimely)
	l.Record(0, UsefulLate)
	l.Record(3, EvictedUnused)
	l.Record(3, ConflictVictim)
	l.Record(-1, ConflictVictim) // totals only, no vault row

	s := l.summary()
	if s.UsefulTimely != 2 {
		t.Errorf("UsefulTimely = %d, want 2", s.UsefulTimely)
	}
	if s.ConflictVictim != 2 {
		t.Errorf("ConflictVictim = %d, want 2", s.ConflictVictim)
	}
	if s.Scheme != "CAMPS-MOD" {
		t.Errorf("Scheme = %q", s.Scheme)
	}
	if s.Classified() != 6 {
		t.Errorf("Classified = %d, want 6", s.Classified())
	}
	want := []LedgerVault{
		{Vault: 0, UsefulTimely: 2, UsefulLate: 1},
		{Vault: 3, EvictedUnused: 1, ConflictVictim: 1},
	}
	if !reflect.DeepEqual(s.Vaults, want) {
		t.Errorf("vault rows = %+v, want %+v (vaults 1 and 2 must be elided)", s.Vaults, want)
	}
}

// TestLedgerNilSafe: a nil ledger records nothing and reports zeros.
func TestLedgerNilSafe(t *testing.T) {
	var l *PrefetchLedger
	l.Record(0, UsefulTimely)
	if l.summary() != nil {
		t.Error("nil ledger produced data")
	}
	var s *LedgerSummary
	if s.Classified() != 0 {
		t.Error("nil summary classified something")
	}
}

// TestLedgerMetricsRegistered: register publishes the four pf.* outcome
// counters under their literal names.
func TestLedgerMetricsRegistered(t *testing.T) {
	reg := NewRegistry()
	l := newPrefetchLedger("MMD")
	l.register(reg)
	l.Record(1, UsefulTimely)
	l.Record(1, UsefulLate)
	l.Record(1, UsefulLate)
	l.Record(2, EvictedUnused)

	snap := reg.Snapshot("t", 0)
	for name, want := range map[string]uint64{
		MetricPFUsefulTimely: 1,
		MetricPFUsefulLate:   2,
		MetricPFUnused:       1,
		MetricPFConflict:     0,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestOutcomeStrings: names follow the snake_case taxonomy documented in
// docs/OBSERVABILITY.md.
func TestOutcomeStrings(t *testing.T) {
	want := []string{"useful_timely", "useful_late", "evicted_unused", "conflict_victim"}
	if int(outcomeCount) != len(want) {
		t.Fatalf("got %d outcomes, want %d", outcomeCount, len(want))
	}
	for o := PrefetchOutcome(0); o < outcomeCount; o++ {
		if o.String() != want[o] {
			t.Errorf("outcome %d = %q, want %q", o, o.String(), want[o])
		}
	}
}
