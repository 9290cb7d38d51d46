package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRegistryHandlesStable: repeated lookups of one name return the same
// instance, so components can capture handles once.
func TestRegistryHandlesStable(t *testing.T) {
	r := NewRegistry()
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram not stable across lookups")
	}
}

// TestAdditiveRegistration: multiple CounterFunc/GaugeFunc registrations
// under one name sum at snapshot time — the mechanism replicated vaults
// and cores rely on.
func TestAdditiveRegistration(t *testing.T) {
	r := NewRegistry()
	vaultHits := []uint64{10, 20, 30}
	for i := range vaultHits {
		i := i
		r.CounterFunc("vault.hits", func() uint64 { return vaultHits[i] })
	}
	r.GaugeFunc("vault.queue", func() float64 { return 1.5 })
	r.GaugeFunc("vault.queue", func() float64 { return 2.5 })

	s := r.Snapshot("t", 123)
	if s.AtPs != 123 || s.Tag != "t" {
		t.Errorf("snapshot header = %d/%q", s.AtPs, s.Tag)
	}
	if got := s.Counter("vault.hits"); got != 60 {
		t.Errorf("vault.hits = %d, want 60", got)
	}
	if got := s.Gauges["vault.queue"]; got != 4.0 {
		t.Errorf("vault.queue = %v, want 4", got)
	}

	// Later snapshots re-read the functions.
	vaultHits[0] = 100
	if got := r.Snapshot("t2", 456).Counter("vault.hits"); got != 150 {
		t.Errorf("after mutation vault.hits = %d, want 150", got)
	}
}

// TestSnapshotHistograms: histogram metrics render to summaries.
func TestSnapshotHistograms(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for v := int64(1); v <= 100; v++ {
		h.ObserveInt(v)
	}
	hs, ok := r.Snapshot("x", 0).Histograms["lat"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.Count != 100 || hs.Max != 100 {
		t.Errorf("count/max = %d/%v, want 100/100", hs.Count, hs.Max)
	}
	if hs.Mean != 50.5 {
		t.Errorf("mean = %v, want 50.5", hs.Mean)
	}
	if hs.P50 < 50 || hs.P50 > 50*1.13 {
		t.Errorf("p50 = %v, want within 12.5%% above 50", hs.P50)
	}
	if hs.P99 < 99 || hs.P99 > 100 {
		t.Errorf("p99 = %v, want in [99,100]", hs.P99)
	}
}

// TestWriteSnapshotsJSONL: one valid JSON object per line with the
// documented keys.
func TestWriteSnapshotsJSONL(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x", func() uint64 { return 3 })
	snaps := []Snapshot{r.Snapshot("epoch", 1000), r.Snapshot("final", 2000)}
	var buf bytes.Buffer
	if err := writeSnapshotsJSONL(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil {
		t.Fatalf("line 1 not valid JSON: %v", err)
	}
	if s.AtPs != 2000 || s.Tag != "final" || s.Counter("x") != 3 {
		t.Errorf("round-tripped snapshot = %+v", s)
	}
}

// TestSuite: NewSuite wires a registry and tracer; Snap accumulates.
func TestSuite(t *testing.T) {
	s := NewSuite(0)
	if s.Registry == nil || s.Tracer == nil {
		t.Fatal("suite missing registry or tracer")
	}
	if got := len(s.Tracer.buf); got != DefaultTraceCap {
		t.Errorf("default trace cap = %d, want %d", got, DefaultTraceCap)
	}
	var n uint64
	s.Registry.CounterFunc("n", func() uint64 { return n })
	n++
	s.Snap("e1", 10)
	n++
	s.Snap("e2", 20)
	snaps := s.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	if snaps[0].Counter("n") != 1 || snaps[1].Counter("n") != 2 {
		t.Errorf("snapshot counters = %d, %d; want 1, 2",
			snaps[0].Counter("n"), snaps[1].Counter("n"))
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Errorf("WriteMetrics wrote %d lines, want 2", n)
	}
}

// TestSuiteTracerDroppedCounter: every suite exposes the tracer's
// overwrite count as a registry metric, so epoch snapshots reveal when
// the ring was too small for the run.
func TestSuiteTracerDroppedCounter(t *testing.T) {
	s := NewSuite(2)
	for i := 0; i < 5; i++ {
		s.Tracer.Emit(Event{At: int64(i), Type: EvEpoch, Vault: -1})
	}
	snap := s.Registry.Snapshot("t", 0)
	if got := snap.Counter(MetricTracerDropped); got != 3 {
		t.Errorf("%s = %d, want 3 (5 emitted into a 2-slot ring)", MetricTracerDropped, got)
	}
	if got := s.Tracer.Dropped(); got != 3 {
		t.Errorf("Tracer.Dropped = %d, want 3", got)
	}
}
