package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// EventType identifies one kind of simulator event.
type EventType uint8

// The typed events the simulator publishes. Field semantics per type are
// documented in docs/OBSERVABILITY.md; unused fields are zero.
const (
	// Vault / DRAM events: Vault, Bank, Row identify the location.
	EvRowActivate EventType = iota
	EvRowHit
	EvRowMiss
	EvRowConflict
	EvRowWriteback // prefetch-buffer row stored back to its bank
	// Prefetch events: Vault, Bank, Row; Arg is per-type context
	// (issue: 1 = inline fetch; hit: line index; evict: utilization).
	EvPrefetchIssue
	EvPrefetchHit
	EvPrefetchEvict
	EvPrefetchDrop
	// MSHR events: Row carries the line address; Arg the outstanding count.
	EvMSHRStall
	EvMSHRCoalesce
	// Link events: Vault is the link id, Bank the direction (0 request,
	// 1 response), Arg the packet bytes.
	EvLinkFlit
	// Epoch marker emitted at each registry snapshot.
	EvEpoch
	// Fault-injection events (internal/fault). LinkCRC: Vault is the link
	// id, Bank the direction, Arg the retry count. VaultStall: Arg the
	// stall duration. Poison: Vault/Bank/Row locate the discarded row.
	// BankFail: Arg the window duration; At is the window start.
	EvFaultLinkCRC
	EvFaultVaultStall
	EvFaultPoison
	EvFaultBankFail
	// Attribution span retirement (internal/obs span layer). At is the
	// span's begin time, Arg its end-to-end latency in ps, Bank the
	// dominant Cause, Row the retirement sequence number. Rendered as a
	// Chrome duration event ("ph":"X").
	EvSpan

	evTypeCount
)

var evNames = [evTypeCount]string{
	EvRowActivate:     "row-activate",
	EvRowHit:          "row-hit",
	EvRowMiss:         "row-miss",
	EvRowConflict:     "row-conflict",
	EvRowWriteback:    "row-writeback",
	EvPrefetchIssue:   "prefetch-issue",
	EvPrefetchHit:     "prefetch-hit",
	EvPrefetchEvict:   "prefetch-evict",
	EvPrefetchDrop:    "prefetch-drop",
	EvMSHRStall:       "mshr-stall",
	EvMSHRCoalesce:    "mshr-coalesce",
	EvLinkFlit:        "link-flit",
	EvEpoch:           "epoch",
	EvFaultLinkCRC:    "fault-link-crc",
	EvFaultVaultStall: "fault-vault-stall",
	EvFaultPoison:     "fault-poison",
	EvFaultBankFail:   "fault-bank-fail",
	EvSpan:            "span",
}

var evCats = [evTypeCount]string{
	EvRowActivate:     "dram",
	EvRowHit:          "dram",
	EvRowMiss:         "dram",
	EvRowConflict:     "dram",
	EvRowWriteback:    "dram",
	EvPrefetchIssue:   "prefetch",
	EvPrefetchHit:     "prefetch",
	EvPrefetchEvict:   "prefetch",
	EvPrefetchDrop:    "prefetch",
	EvMSHRStall:       "mshr",
	EvMSHRCoalesce:    "mshr",
	EvLinkFlit:        "link",
	EvEpoch:           "epoch",
	EvFaultLinkCRC:    "fault",
	EvFaultVaultStall: "fault",
	EvFaultPoison:     "fault",
	EvFaultBankFail:   "fault",
	EvSpan:            "span",
}

// String returns the kebab-case event name used in exports.
func (t EventType) String() string {
	if int(t) < len(evNames) {
		return evNames[t]
	}
	return fmt.Sprintf("event-%d", uint8(t))
}

// category returns the export category (Chrome trace "cat" field).
func (t EventType) category() string {
	if int(t) < len(evCats) {
		return evCats[t]
	}
	return "other"
}

// Event is one structured simulator event. It is a flat value type so the
// tracer ring is a single contiguous allocation.
type Event struct {
	At    int64 // simulation time, picoseconds
	Row   int64 // DRAM row or line address, per type
	Arg   int64 // per-type context; see the EventType docs
	Vault int32 // vault id, or link id for EvLinkFlit; -1 when n/a
	Bank  int32 // bank id, or direction for EvLinkFlit
	Type  EventType
}

// DefaultTraceCap is the ring capacity NewSuite uses: large enough for a
// useful chrome://tracing window, small enough (~3 MB) to be free.
const DefaultTraceCap = 1 << 16

// Tracer records events into a fixed ring buffer: when full, the oldest
// events are overwritten, so the trace always holds the most recent
// window of the run. Emit on a nil *Tracer is a no-op, letting
// instrumented components skip the "is tracing on?" conditional.
type Tracer struct {
	buf     []Event
	next    int    // ring write position
	n       int    // valid events, <= len(buf)
	total   uint64 // events ever emitted
	dropped uint64 // events overwritten
}

// NewTracer returns a tracer holding up to capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		panic("obs: tracer capacity must be positive")
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Emit records one event. Zero-allocation; nil-safe.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if t.n == len(t.buf) {
		t.dropped++
	} else {
		t.n++
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	t.total++
}

// Len returns the number of events currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Total returns the number of events ever emitted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Dropped returns the number of events overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Event, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// jsonlEvent is the JSONL export schema.
type jsonlEvent struct {
	AtPs  int64  `json:"at_ps"`
	Type  string `json:"type"`
	Vault int32  `json:"vault"`
	Bank  int32  `json:"bank"`
	Row   int64  `json:"row"`
	Arg   int64  `json:"arg,omitempty"`
}

// WriteJSONL writes the retained events oldest-first, one JSON object per
// line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range t.Events() {
		je := jsonlEvent{
			AtPs:  ev.At,
			Type:  ev.Type.String(),
			Vault: ev.Vault,
			Bank:  ev.Bank,
			Row:   ev.Row,
			Arg:   ev.Arg,
		}
		if err := enc.Encode(&je); err != nil {
			return fmt.Errorf("obs: trace jsonl: %w", err)
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name  string           `json:"name"`
	Cat   string           `json:"cat"`
	Phase string           `json:"ph"`
	TsUs  float64          `json:"ts"`
	Pid   int              `json:"pid"`
	Tid   int              `json:"tid"`
	DurUs float64          `json:"dur,omitempty"`
	Scope string           `json:"s,omitempty"`
	Args  map[string]int64 `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace_event document.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the retained events as a Chrome trace_event
// JSON document, loadable in chrome://tracing or https://ui.perfetto.dev.
// Events appear as instant events ("ph":"i") on one timeline row per
// vault (tid = vault id; -1 renders on row 0). EvSpan events render as
// complete duration events ("ph":"X") spanning the request's lifetime,
// so attribution spans show up as bars rather than ticks.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	doc := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(events)),
		DisplayTimeUnit: "ns",
	}
	for _, ev := range events {
		tid := int(ev.Vault)
		if tid < 0 {
			tid = 0
		}
		ce := chromeEvent{
			Name:  ev.Type.String(),
			Cat:   ev.Type.category(),
			Phase: "i",
			TsUs:  float64(ev.At) / 1e6, // ps -> us
			Pid:   0,
			Tid:   tid,
			Scope: "t",
			Args: map[string]int64{
				"bank": int64(ev.Bank),
				"row":  ev.Row,
				"arg":  ev.Arg,
			},
		}
		if ev.Type == EvSpan {
			ce.Phase = "X"
			ce.DurUs = float64(ev.Arg) / 1e6
			ce.Scope = ""
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&doc); err != nil {
		return fmt.Errorf("obs: chrome trace: %w", err)
	}
	return nil
}
