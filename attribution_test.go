package camps_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"camps"
	"camps/internal/obs"
	"camps/internal/report"
	"camps/internal/sim"
)

// TestAttributionEndToEnd runs a small simulation with latency
// attribution enabled and the epoch invariant checker armed, then checks
// the acceptance contract: every retired request's cause columns sum to
// its end-to-end latency, the prefetch ledger classifies real traffic,
// and the summary renders and exports.
func TestAttributionEndToEnd(t *testing.T) {
	rc := quick("HM1", camps.CAMPSMOD)
	suite := obs.NewSuite(0)
	suite.EnableAttribution(camps.CAMPSMOD.String())
	rc.Obs = suite
	rc.EpochInterval = 2 * sim.Microsecond
	rc.CheckInvariants = true // includes the span-attribution invariant
	res, err := camps.RunContext(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}

	sum := res.Attribution
	if sum == nil {
		t.Fatal("Results.Attribution nil with attribution enabled")
	}
	if sum.SpansRetired == 0 || sum.SpansRetired > sum.SpansStarted {
		t.Fatalf("spans retired/started = %d/%d", sum.SpansRetired, sum.SpansStarted)
	}

	// The core acceptance invariant: cause columns sum exactly to the
	// end-to-end total — no latency is lost or double-counted.
	var causeSum uint64
	for _, cb := range sum.Causes {
		causeSum += cb.TotalPs
	}
	if causeSum != sum.E2ETotalPs {
		t.Errorf("cause totals sum to %d ps, end-to-end total is %d ps", causeSum, sum.E2ETotalPs)
	}
	if sum.E2ETotalPs == 0 {
		t.Error("no latency attributed over a full run")
	}
	for _, want := range []string{"queue", "link", "service"} {
		found := false
		for _, cb := range sum.Causes {
			if cb.Cause == want && cb.TotalPs > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("cause %q attributed no time over a full run", want)
		}
	}

	// CAMPS-MOD prefetches on this mix, so the ledger must classify rows
	// and the conflict heatmap must cover the cube's vaults.
	if lg := sum.Ledger; lg == nil || lg.Classified() == 0 {
		t.Error("prefetch ledger empty under CAMPS-MOD on HM1")
	} else if lg.Scheme != camps.CAMPSMOD.String() {
		t.Errorf("ledger scheme = %q", lg.Scheme)
	}
	if len(sum.VaultConflictPs) == 0 {
		t.Error("vault conflict heatmap empty")
	}

	// Attribution totals surface as registry metrics too.
	last := suite.Snapshots()[len(suite.Snapshots())-1]
	if got := last.Counters[obs.MetricSpanRetired]; got != sum.SpansRetired {
		t.Errorf("%s = %d, want %d", obs.MetricSpanRetired, got, sum.SpansRetired)
	}
	if hs, ok := last.Histograms[obs.MetricSpanE2EHist]; !ok || hs.Count == 0 {
		t.Error("span e2e latency histogram empty or missing")
	}

	// Span retirements feed the tracer as EvSpan duration events.
	spanEvents := 0
	for _, ev := range suite.Tracer.Events() {
		if ev.Type == obs.EvSpan {
			spanEvents++
			if ev.Arg <= 0 {
				t.Fatalf("span event with non-positive latency: %+v", ev)
			}
		}
	}
	if spanEvents == 0 {
		t.Error("no EvSpan events in the trace window")
	}

	// The CLI table renders with the headline sections present.
	text := report.Attribution(sum)
	for _, want := range []string{"latency attribution", "end-to-end", "prefetch efficacy", "bank-conflict heatmap"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}

	// The summary round-trips through JSON (the -attr-out format).
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.AttributionSummary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.E2ETotalPs != sum.E2ETotalPs || back.Ledger.Classified() != sum.Ledger.Classified() {
		t.Error("attribution summary does not round-trip through JSON")
	}
}

// TestAttributionDoesNotPerturbSimulation: attribution is pure
// observation — enabling it must not change any simulated outcome.
func TestAttributionDoesNotPerturbSimulation(t *testing.T) {
	plain, err := camps.RunContext(context.Background(), quick("MX1", camps.CAMPSMOD))
	if err != nil {
		t.Fatal(err)
	}
	rc := quick("MX1", camps.CAMPSMOD)
	suite := obs.NewSuite(0)
	suite.EnableAttribution(camps.CAMPSMOD.String())
	rc.Obs = suite
	attributed, err := camps.RunContext(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if plain.GeoMeanIPC != attributed.GeoMeanIPC ||
		plain.RowConflicts != attributed.RowConflicts ||
		plain.ElapsedSim != attributed.ElapsedSim ||
		plain.AMATps != attributed.AMATps {
		t.Errorf("attribution changed simulation results: ipc %g vs %g, conflicts %d vs %d, time %d vs %d, amat %g vs %g",
			plain.GeoMeanIPC, attributed.GeoMeanIPC, plain.RowConflicts, attributed.RowConflicts,
			plain.ElapsedSim, attributed.ElapsedSim, plain.AMATps, attributed.AMATps)
	}
}

// TestMetricsStreamEndToEnd is the -serve-metrics acceptance test: a run
// publishing epoch snapshots through obs.StartStream must deliver at
// least one epoch snapshot to an SSE client, exactly as campsim wires it.
func TestMetricsStreamEndToEnd(t *testing.T) {
	srv, ok := obs.StartStream("127.0.0.1:0", nil)
	if !ok {
		t.Fatal("StartStream failed on an ephemeral port")
	}

	rc := quick("HM1", camps.CAMPSMOD)
	suite := obs.NewSuite(0)
	suite.OnSnapshot = srv.Publish
	rc.Obs = suite
	rc.EpochInterval = 2 * sim.Microsecond
	if _, err := camps.RunContext(context.Background(), rc); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/metrics/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	// The backlog replays the run's most recent snapshots; the first
	// frame must parse as an epoch snapshot with simulator counters.
	var event, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			break
		}
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if event != "epoch" && event != "final" {
		t.Errorf("first streamed event = %q, want epoch or final", event)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(data), &snap); err != nil {
		t.Fatalf("streamed data not a snapshot: %v", err)
	}
	if snap.AtPs <= 0 || len(snap.Counters) == 0 {
		t.Errorf("streamed snapshot empty: at=%d, %d counters", snap.AtPs, len(snap.Counters))
	}
}
