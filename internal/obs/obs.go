// Package obs is the simulator-wide observability layer: a metrics
// registry of named counter and gauge readers and log-bucketed latency
// histograms, plus a ring-buffered structured event tracer (see
// tracer.go).
//
// Design constraints, in order:
//
//  1. Zero allocation on the hot path. Components register counter and
//     gauge readers over their own stats fields and capture *Histogram
//     handles once at instrumentation time; Observe/Emit touch only
//     preallocated storage. All map lookups happen during
//     registration or at snapshot/export time.
//  2. One registry per simulation. Like the event engine, a Registry is
//     confined to a single goroutine; exp.Run runs cells in parallel
//     by giving each its own engine *and* its own registry, so nothing
//     here needs atomics or locks.
//  3. Additive registration. Replicated subsystems (32 vault controllers,
//     8 cores) each register a reader function under the *same* metric
//     name; a snapshot sums them. Registering only one vault therefore
//     yields per-vault values and registering all of them yields the
//     cube-wide aggregate, with no coordination between the components.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Registry holds every registered metric of one simulation.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	hists      map[string]*Histogram
	counterFns map[string][]func() uint64
	gaugeFns   map[string][]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:      make(map[string]*Histogram),
		counterFns: make(map[string][]func() uint64),
		gaugeFns:   make(map[string][]func() float64),
	}
}

// Histogram returns the histogram registered under name, creating it on
// first use. Replicated subsystems sharing one name share one histogram,
// which merges their distributions for free.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers a reader for an externally owned counter (an
// existing private stats field). Multiple registrations under one name
// sum at snapshot time, so per-vault / per-core components all register
// the same name.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.counterFns[name] = append(r.counterFns[name], fn)
}

// GaugeFunc registers a reader for an externally owned instantaneous
// value. Multiple registrations under one name sum at snapshot time.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.gaugeFns[name] = append(r.gaugeFns[name], fn)
}

// HistSummary is a histogram rendered down to its headline statistics.
type HistSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot is the state of every registered metric at one instant.
type Snapshot struct {
	AtPs       int64                  `json:"at_ps"`
	Tag        string                 `json:"tag"`
	Counters   map[string]uint64      `json:"counters,omitempty"`
	Gauges     map[string]float64     `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Snapshot evaluates every metric. Reader functions run here, never on
// the hot path; multiple registrations of one name are summed.
func (r *Registry) Snapshot(tag string, atPs int64) Snapshot {
	s := Snapshot{
		AtPs:     atPs,
		Tag:      tag,
		Counters: make(map[string]uint64, len(r.counterFns)),
		Gauges:   make(map[string]float64, len(r.gaugeFns)),
	}
	for name, fns := range r.counterFns {
		for _, fn := range fns {
			s.Counters[name] += fn()
		}
	}
	for name, fns := range r.gaugeFns {
		for _, fn := range fns {
			s.Gauges[name] += fn()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSummary, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = HistSummary{
				Count: h.count,
				Mean:  h.mean(),
				P50:   h.quantile(0.50),
				P95:   h.quantile(0.95),
				P99:   h.quantile(0.99),
				Max:   float64(h.max),
			}
		}
	}
	return s
}

// writeSnapshotsJSONL writes one JSON object per snapshot, one per line
// (map keys are emitted sorted by encoding/json, so output is
// deterministic).
func writeSnapshotsJSONL(w io.Writer, snaps []Snapshot) error {
	enc := json.NewEncoder(w)
	for i := range snaps {
		if err := enc.Encode(&snaps[i]); err != nil {
			return fmt.Errorf("obs: snapshot %d: %w", i, err)
		}
	}
	return nil
}

// Suite bundles the per-run observability state: the registry every
// subsystem publishes into, the event tracer, the epoch snapshots
// accumulated over the run, and — when EnableAttribution has been
// called — the request-span set and prefetch ledger. A Suite belongs to
// exactly one simulation.
type Suite struct {
	Registry *Registry
	Tracer   *Tracer

	// Spans and Ledger are nil until EnableAttribution: the request path
	// checks only a nil receiver, so attribution-off runs stay free.
	Spans  *SpanSet
	Ledger *PrefetchLedger

	// OnSnapshot, when set, observes every snapshot Snap records — the
	// hook live streaming (StreamServer.Publish) attaches to.
	OnSnapshot func(Snapshot)

	snaps []Snapshot
}

// NewSuite returns a suite whose tracer holds traceCap events
// (traceCap <= 0 selects the default ring size).
func NewSuite(traceCap int) *Suite {
	if traceCap <= 0 {
		traceCap = DefaultTraceCap
	}
	s := &Suite{Registry: NewRegistry(), Tracer: NewTracer(traceCap)}
	s.Registry.CounterFunc(MetricTracerDropped, s.Tracer.Dropped)
	return s
}

// EnableAttribution switches on per-request latency spans and the
// prefetch efficacy ledger, registering their metrics. scheme labels
// the ledger with the prefetch engine driving the run. Idempotent.
func (s *Suite) EnableAttribution(scheme string) {
	if s.Spans == nil {
		s.Spans = newSpanSet(0)
		s.Spans.register(s.Registry, s.Tracer)
	}
	if s.Ledger == nil {
		s.Ledger = newPrefetchLedger(scheme)
		s.Ledger.register(s.Registry)
	}
}

// Attribution folds the span set and ledger into an exportable summary,
// or nil when attribution is off.
func (s *Suite) Attribution() *AttributionSummary {
	if s == nil || s.Spans == nil {
		return nil
	}
	sum := s.Spans.summary()
	sum.Ledger = s.Ledger.summary()
	return sum
}

// Snap records one registry snapshot tagged tag at simulation time atPs
// and forwards it to the OnSnapshot hook when one is attached.
func (s *Suite) Snap(tag string, atPs int64) Snapshot {
	snap := s.Registry.Snapshot(tag, atPs)
	s.snaps = append(s.snaps, snap)
	if s.OnSnapshot != nil {
		s.OnSnapshot(snap)
	}
	return snap
}

// Snapshots returns the snapshots recorded so far, in order.
func (s *Suite) Snapshots() []Snapshot { return s.snaps }

// WriteMetrics writes the accumulated snapshots as JSONL.
func (s *Suite) WriteMetrics(w io.Writer) error {
	return writeSnapshotsJSONL(w, s.snaps)
}
