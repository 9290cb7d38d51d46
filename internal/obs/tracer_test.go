package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestTracerRingWraparound: a full ring overwrites oldest-first and
// Events() returns the surviving window in emission order.
func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{At: int64(i), Type: EvRowConflict})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Errorf("Total/Dropped = %d/%d, want 10/6", tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		want := int64(6 + i) // events 0..5 were overwritten
		if ev.At != want {
			t.Errorf("event %d At = %d, want %d", i, ev.At, want)
		}
	}
}

// TestTracerPartialRing: before wrapping, all emitted events are retained.
func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 3; i++ {
		tr.Emit(Event{At: int64(i)})
	}
	evs := tr.Events()
	if len(evs) != 3 || tr.Dropped() != 0 {
		t.Fatalf("got %d events, %d dropped; want 3, 0", len(evs), tr.Dropped())
	}
	for i, ev := range evs {
		if ev.At != int64(i) {
			t.Errorf("event %d At = %d, want %d", i, ev.At, i)
		}
	}
}

// TestTracerNilSafe: all methods are no-ops on a nil tracer, so call
// sites need no conditionals.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{At: 1})
	if tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer must report empty state")
	}
}

// TestEventTypeNames: every defined event type has a name and category
// (catches a new constant added without updating the tables).
func TestEventTypeNames(t *testing.T) {
	for ty := EventType(0); ty < evTypeCount; ty++ {
		if ty.String() == "" || strings.HasPrefix(ty.String(), "event-") {
			t.Errorf("event type %d has no name", ty)
		}
		if ty.category() == "" || ty.category() == "other" {
			t.Errorf("event type %v has no category", ty)
		}
	}
	if got := EventType(200).String(); got != "event-200" {
		t.Errorf("unknown type String() = %q", got)
	}
}

// TestWriteJSONL: one valid JSON object per line with the documented keys.
func TestWriteJSONL(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{At: 100, Type: EvPrefetchHit, Vault: 3, Bank: 1, Row: 42, Arg: 7})
	tr.Emit(Event{At: 200, Type: EvRowConflict, Vault: 5, Bank: 2, Row: 99})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first struct {
		AtPs  int64  `json:"at_ps"`
		Type  string `json:"type"`
		Vault int32  `json:"vault"`
		Bank  int32  `json:"bank"`
		Row   int64  `json:"row"`
		Arg   int64  `json:"arg"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if first.AtPs != 100 || first.Type != "prefetch-hit" || first.Vault != 3 ||
		first.Bank != 1 || first.Row != 42 || first.Arg != 7 {
		t.Errorf("unexpected first event: %+v", first)
	}
}

// TestWriteChromeTrace: the export is a valid trace_event JSON-object
// document — traceEvents array of instant events with the required
// name/cat/ph/ts/pid/tid keys and vault-keyed timeline rows.
func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{At: 2_000_000, Type: EvRowConflict, Vault: 7, Bank: 3, Row: 11})
	tr.Emit(Event{At: 3_000_000, Type: EvEpoch, Vault: -1})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string           `json:"name"`
			Cat   string           `json:"cat"`
			Phase string           `json:"ph"`
			TsUs  float64          `json:"ts"`
			Pid   *int             `json:"pid"`
			Tid   *int             `json:"tid"`
			Scope string           `json:"s"`
			Args  map[string]int64 `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "row-conflict" || ev.Cat != "dram" || ev.Phase != "i" || ev.Scope != "t" {
		t.Errorf("unexpected event header: %+v", ev)
	}
	if ev.Pid == nil || ev.Tid == nil {
		t.Fatal("pid/tid must be present")
	}
	if *ev.Tid != 7 {
		t.Errorf("tid = %d, want vault id 7", *ev.Tid)
	}
	if ev.TsUs != 2.0 { // 2e6 ps = 2 us
		t.Errorf("ts = %v us, want 2", ev.TsUs)
	}
	if ev.Args["bank"] != 3 || ev.Args["row"] != 11 {
		t.Errorf("args = %v, want bank 3 row 11", ev.Args)
	}
	// Vault -1 must clamp to a valid (non-negative) timeline row.
	if tid := *doc.TraceEvents[1].Tid; tid < 0 {
		t.Errorf("negative tid %d for vault -1", tid)
	}
}

func BenchmarkTracerEmit(b *testing.B) {
	tr := NewTracer(1 << 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{At: int64(i), Type: EvRowHit, Vault: 1})
	}
}
