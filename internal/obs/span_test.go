package obs

import (
	"strings"
	"testing"
)

// TestSpanCauseSumEqualsE2E: the cursor-walk construction makes a retired
// span's cause segments sum exactly to its end-to-end latency, and the
// set-wide totals preserve that identity.
func TestSpanCauseSumEqualsE2E(t *testing.T) {
	s := newSpanSet(4)
	ref := s.Begin(1000)
	s.Advance(ref, CauseFaultRetry, 50)
	s.AdvanceTo(ref, CauseLink, 1300)
	s.AdvanceTo(ref, CauseXbar, 1400)
	s.AdvanceTo(ref, CauseQueue, 2000)
	s.AdvanceTo(ref, CauseBankConflict, 2600)
	s.Retire(ref, CauseService, 3000)

	if got := s.retired; got != 1 {
		t.Fatalf("retired = %d, want 1", got)
	}
	wantE2E := uint64(3000 - 1000)
	if s.e2eTotal != wantE2E {
		t.Errorf("e2e total = %d, want %d", s.e2eTotal, wantE2E)
	}
	want := map[Cause]uint64{
		CauseFaultRetry:   50,
		CauseLink:         250, // 1050 -> 1300
		CauseXbar:         100,
		CauseQueue:        600,
		CauseBankConflict: 600,
		CauseService:      400,
	}
	var sum uint64
	for c, w := range want {
		if got := s.causePs[c]; got != w {
			t.Errorf("CausePs(%v) = %d, want %d", c, got, w)
		}
		sum += w
	}
	if sum != wantE2E {
		t.Fatalf("test arithmetic broken: cause sum %d != e2e %d", sum, wantE2E)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Errorf("CheckInvariant: %v", err)
	}
}

// TestSpanNilAndZeroRefSafe: a nil set and the zero ref are no-ops on
// every method, so attribution-off call sites need no conditionals.
func TestSpanNilAndZeroRefSafe(t *testing.T) {
	var nilSet *SpanSet
	ref := nilSet.Begin(0)
	if ref.Valid() {
		t.Error("nil set returned a valid ref")
	}
	nilSet.Advance(ref, CauseQueue, 10)
	nilSet.AdvanceTo(ref, CauseQueue, 10)
	nilSet.SetVault(ref, 3)
	nilSet.Retire(ref, CauseQueue, 10)
	if nilSet.CheckInvariant() != nil || nilSet.summary() != nil {
		t.Error("nil set produced non-nil results")
	}

	s := newSpanSet(2)
	s.Advance(SpanRef{}, CauseQueue, 10)
	s.Retire(SpanRef{}, CauseQueue, 10)
	if s.started != 0 || s.retired != 0 || s.e2eTotal != 0 {
		t.Error("zero ref mutated the set")
	}
}

// TestSpanStaleRefIgnored: once a span retires and its slot is recycled,
// the old generation-counted ref no longer resolves — advancing or
// re-retiring through it must not corrupt the new occupant.
func TestSpanStaleRefIgnored(t *testing.T) {
	s := newSpanSet(1)
	old := s.Begin(100)
	s.Retire(old, CauseService, 200)

	fresh := s.Begin(500) // recycles the same slot
	s.Advance(old, CauseQueue, 1000)
	s.Retire(old, CauseQueue, 9999)
	if s.retired != 1 {
		t.Fatalf("stale retire counted: retired = %d, want 1", s.retired)
	}
	s.Retire(fresh, CauseService, 600)
	if got := s.causePs[CauseService]; got != 100+100 {
		t.Errorf("service ps = %d, want 200", got)
	}
	if got := s.causePs[CauseQueue]; got != 0 {
		t.Errorf("stale ref charged %d ps of queue time", got)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Errorf("CheckInvariant: %v", err)
	}
}

// TestSpanAdvanceToMonotone: AdvanceTo charges only forward progress, so
// independently computed segment boundaries can never double-charge.
func TestSpanAdvanceToMonotone(t *testing.T) {
	s := newSpanSet(1)
	ref := s.Begin(1000)
	s.AdvanceTo(ref, CauseLink, 1500)
	s.AdvanceTo(ref, CauseXbar, 1200) // behind the cursor: no-op
	s.AdvanceTo(ref, CauseXbar, 1500) // at the cursor: no-op
	s.Retire(ref, CauseService, 1600)
	if got := s.causePs[CauseXbar]; got != 0 {
		t.Errorf("backwards AdvanceTo charged %d ps", got)
	}
	if got := s.e2eTotal; got != 600 {
		t.Errorf("e2e = %d, want 600", got)
	}
}

// TestSpanZeroAllocSteadyState: the pooled records make steady-state
// begin/advance/retire traffic allocation-free, matching the engine's
// eventNode discipline.
func TestSpanZeroAllocSteadyState(t *testing.T) {
	s := newSpanSet(8)
	at := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		at += 100
		ref := s.Begin(at)
		s.SetVault(ref, 3)
		s.AdvanceTo(ref, CauseQueue, at+40)
		s.Retire(ref, CauseService, at+90)
	})
	if allocs != 0 {
		t.Errorf("steady-state span cycle allocates %.1f times per op, want 0", allocs)
	}
}

// TestSpanVaultHeatmap: conflict picoseconds fold into the span's vault
// at retirement; the heatmap grows on demand.
func TestSpanVaultHeatmap(t *testing.T) {
	s := newSpanSet(2)
	ref := s.Begin(0)
	s.SetVault(ref, 5)
	s.AdvanceTo(ref, CauseBankConflict, 300)
	s.Retire(ref, CauseService, 400)

	ref = s.Begin(1000)
	s.SetVault(ref, 2)
	s.Retire(ref, CauseService, 1100) // no conflict time

	hm := s.vaultConflictPs
	if len(hm) != 6 {
		t.Fatalf("heatmap length = %d, want 6", len(hm))
	}
	if hm[5] != 300 || hm[2] != 0 {
		t.Errorf("heatmap = %v, want 300 at v5 and 0 at v2", hm)
	}
}

// TestSpanRetireEmitsTraceEvent: retirement publishes one EvSpan event
// carrying the span's begin time, end-to-end latency, vault, and dominant
// cause — the record the Chrome trace export renders as a duration slice.
func TestSpanRetireEmitsTraceEvent(t *testing.T) {
	tr := NewTracer(4)
	s := newSpanSet(1)
	s.register(nil, tr)
	ref := s.Begin(2000)
	s.SetVault(ref, 7)
	s.AdvanceTo(ref, CauseBankConflict, 2900)
	s.Retire(ref, CauseService, 3000)

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Type != EvSpan || ev.At != 2000 || ev.Arg != 1000 || ev.Vault != 7 {
		t.Errorf("event = %+v", ev)
	}
	if Cause(ev.Bank) != CauseBankConflict {
		t.Errorf("dominant cause = %v, want bank_conflict", Cause(ev.Bank))
	}
}

// TestSpanMetricsRegistered: register publishes every span.* counter
// under its compile-time-literal name, and the totals surface in
// snapshots.
func TestSpanMetricsRegistered(t *testing.T) {
	reg := NewRegistry()
	s := newSpanSet(1)
	s.register(reg, nil)
	ref := s.Begin(0)
	s.AdvanceTo(ref, CauseQueue, 70)
	s.Retire(ref, CauseService, 100)

	snap := reg.Snapshot("t", 0)
	if got := snap.Counters[MetricSpanStarted]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricSpanStarted, got)
	}
	if got := snap.Counters[MetricSpanRetired]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricSpanRetired, got)
	}
	if got := snap.Counters[MetricSpanE2EPs]; got != 100 {
		t.Errorf("%s = %d, want 100", MetricSpanE2EPs, got)
	}
	if got := snap.Counters[causeMetricNames[CauseQueue]]; got != 70 {
		t.Errorf("%s = %d, want 70", causeMetricNames[CauseQueue], got)
	}
	for c := Cause(0); c < causeCount; c++ {
		name := causeMetricNames[c]
		if !strings.HasPrefix(name, "span.") || !strings.HasSuffix(name, "_ps") {
			t.Errorf("cause metric %q breaks the span.*_ps convention", name)
		}
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing from snapshot", name)
		}
		if _, ok := snap.Histograms[name]; c == CauseQueue && !ok {
			t.Errorf("histogram %q missing from snapshot", name)
		}
	}
	if _, ok := snap.Histograms[MetricSpanE2EHist]; !ok {
		t.Errorf("histogram %q missing from snapshot", MetricSpanE2EHist)
	}
}

// TestSpanCheckInvariantDetectsDrift: a corrupted cause total trips the
// sum-equals-e2e invariant.
func TestSpanCheckInvariantDetectsDrift(t *testing.T) {
	s := newSpanSet(1)
	ref := s.Begin(0)
	s.Retire(ref, CauseService, 100)
	s.causePs[CauseQueue] += 1 // simulate an accounting bug
	if err := s.CheckInvariant(); err == nil {
		t.Error("CheckInvariant missed a cause/e2e mismatch")
	}
	s.causePs[CauseQueue] -= 1
	s.retired++ // more retired than started
	if err := s.CheckInvariant(); err == nil {
		t.Error("CheckInvariant missed retired > started")
	}
}

// TestSpanSummary: the exported summary carries shares and means that
// reflect the folded totals.
func TestSpanSummary(t *testing.T) {
	s := newSpanSet(2)
	for i := 0; i < 2; i++ {
		ref := s.Begin(int64(i) * 1000)
		s.AdvanceTo(ref, CauseQueue, int64(i)*1000+60)
		s.Retire(ref, CauseService, int64(i)*1000+100)
	}
	sum := s.summary()
	if sum.SpansStarted != 2 || sum.SpansRetired != 2 || sum.E2ETotalPs != 200 {
		t.Fatalf("summary header = %+v", sum)
	}
	byName := map[string]CauseBreakdown{}
	for _, cb := range sum.Causes {
		byName[cb.Cause] = cb
	}
	q := byName["queue"]
	if q.TotalPs != 120 || q.Share != 0.6 || q.MeanPs != 60 {
		t.Errorf("queue breakdown = %+v", q)
	}
	if sv := byName["service"]; sv.TotalPs != 80 {
		t.Errorf("service breakdown = %+v", sv)
	}
}
