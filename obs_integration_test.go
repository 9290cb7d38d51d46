package camps_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"camps"
	"camps/internal/obs"
	"camps/internal/report"
	"camps/internal/sim"
)

// TestRunWithObservability runs a small HM1 simulation with the full
// observability suite attached and checks the acceptance contract: at
// least one epoch snapshot carrying row-conflict and prefetch counters,
// events in the tracer, and valid JSONL / Chrome trace exports.
func TestRunWithObservability(t *testing.T) {
	rc := quick("HM1", camps.CAMPSMOD)
	suite := obs.NewSuite(0) // default window; must be wide enough to retain the last epoch marker
	rc.Obs = suite
	rc.EpochInterval = 2 * sim.Microsecond
	res, err := camps.RunContext(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}

	snaps := suite.Snapshots()
	if len(snaps) < 2 { // at least one epoch plus the final snapshot
		t.Fatalf("got %d snapshots, want >= 2 (epochs + final)", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.Tag != "final" {
		t.Errorf("last snapshot tag = %q, want final", last.Tag)
	}
	epochs := 0
	for _, s := range snaps {
		if s.Tag == "epoch" {
			epochs++
		}
	}
	if epochs < 1 {
		t.Errorf("no epoch snapshots recorded (epoch ticker not firing)")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].AtPs < snaps[i-1].AtPs {
			t.Fatalf("snapshots out of order: %d ps after %d ps", snaps[i].AtPs, snaps[i-1].AtPs)
		}
	}

	// The registry aggregates must agree with the run's own results.
	if got := last.Counters["vault.row_conflicts"]; got != res.RowConflicts {
		t.Errorf("vault.row_conflicts = %d, want %d from Results", got, res.RowConflicts)
	}
	if got := last.Counters["vault.buffer_hits"]; got != res.VaultStats.BufferHits.Value() {
		t.Errorf("vault.buffer_hits = %d, want %d", got, res.VaultStats.BufferHits.Value())
	}
	for _, name := range []string{
		"vault.demand_reads", "vault.row_hits", "vault.fetches_issued",
		"pfbuffer.hits", "cache.l1_hits", "cache.l3_evictions", "cache.l3_writebacks",
		"cpu.instructions", "hmc.reads",
	} {
		if last.Counters[name] == 0 {
			t.Errorf("counter %s = 0 after a full run", name)
		}
	}
	if hs, ok := last.Histograms["vault.service_latency_ps"]; !ok || hs.Count == 0 {
		t.Error("vault.service_latency_ps histogram empty or missing")
	}
	if hs, ok := last.Histograms["hmc.read_latency_ps"]; !ok || hs.Count == 0 {
		t.Error("hmc.read_latency_ps histogram empty or missing")
	} else if hs.P50 > hs.P99 || float64(hs.Count) < 1 {
		t.Errorf("read latency summary inconsistent: %+v", hs)
	}

	// The tracer must have seen DRAM and prefetch activity.
	if suite.Tracer.Total() == 0 {
		t.Fatal("tracer recorded no events")
	}
	byType := map[obs.EventType]int{}
	for _, ev := range suite.Tracer.Events() {
		byType[ev.Type]++
	}
	for _, ty := range []obs.EventType{obs.EvRowActivate, obs.EvPrefetchIssue, obs.EvEpoch} {
		if byType[ty] == 0 {
			t.Errorf("no %v events in trace window", ty)
		}
	}

	// Both export formats must be valid.
	var jsonl bytes.Buffer
	if err := suite.WriteMetrics(&jsonl); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(jsonl.String()), "\n") {
		var s obs.Snapshot
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("metrics line %d invalid JSON: %v", i, err)
		}
	}
	var chrome bytes.Buffer
	if err := suite.Tracer.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != suite.Tracer.Len() {
		t.Errorf("chrome trace has %d events, tracer holds %d", len(doc.TraceEvents), suite.Tracer.Len())
	}

	// The epoch table renders without panicking and carries the epochs.
	tbl := report.Timeseries(snaps, []string{"vault.row_conflicts", "vault.buffer_hits"}, true)
	if tbl.Rows() != len(snaps) {
		t.Errorf("timeseries rows = %d, want %d", tbl.Rows(), len(snaps))
	}
}

// TestRunWithoutObservability: a nil Obs keeps the hot path untouched —
// the run must behave identically to a plain run (guard against
// instrumentation accidentally becoming load-bearing).
func TestRunWithoutObservability(t *testing.T) {
	plain, err := camps.RunContext(context.Background(), quick("LM1", camps.BASE))
	if err != nil {
		t.Fatal(err)
	}
	rc := quick("LM1", camps.BASE)
	rc.Obs = obs.NewSuite(0)
	observed, err := camps.RunContext(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if plain.GeoMeanIPC != observed.GeoMeanIPC || plain.RowConflicts != observed.RowConflicts ||
		plain.ElapsedSim != observed.ElapsedSim {
		t.Errorf("observability changed simulation results: ipc %g vs %g, conflicts %d vs %d, time %d vs %d",
			plain.GeoMeanIPC, observed.GeoMeanIPC, plain.RowConflicts, observed.RowConflicts,
			plain.ElapsedSim, observed.ElapsedSim)
	}
}
