package obs

import "fmt"

// PrefetchOutcome classifies what ultimately happened to one prefetched
// row: the ledger's unit of account.
type PrefetchOutcome uint8

const (
	// UsefulTimely rows were fully resident before any demand request
	// wanted them and served at least one demand line.
	UsefulTimely PrefetchOutcome = iota
	// UsefulLate rows served demand traffic, but a demand request for the
	// row was already queued when the fetch completed — the prefetch won
	// the race only partially.
	UsefulLate
	// EvictedUnused rows left the buffer without serving any demand
	// request: pure pollution (includes fault-poisoned rows).
	EvictedUnused
	// ConflictVictim directives never became resident: dropped on fetch
	// queue overflow, i.e. squeezed out by the very bank pressure CAMPS
	// tries to relieve.
	ConflictVictim

	outcomeCount
)

var outcomeNames = [outcomeCount]string{
	UsefulTimely:   "useful_timely",
	UsefulLate:     "useful_late",
	EvictedUnused:  "evicted_unused",
	ConflictVictim: "conflict_victim",
}

// String returns the snake_case outcome name used in metrics and reports.
func (o PrefetchOutcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome-%d", uint8(o))
}

// PrefetchLedger classifies every prefetch a run issues into its final
// outcome, per engine (the whole ledger is labeled with the scheme that
// drove it) and per vault. Like the rest of the obs layer it is
// single-goroutine; a nil ledger is valid and records nothing.
type PrefetchLedger struct {
	scheme   string
	totals   [outcomeCount]uint64
	perVault [][outcomeCount]uint64
}

// NewPrefetchLedger returns a ledger labeled with the prefetch engine
// driving the run (e.g. "CAMPS-MOD").
func NewPrefetchLedger(scheme string) *PrefetchLedger {
	return &PrefetchLedger{scheme: scheme}
}

// register wires the ledger's outcome totals into reg as pf.* counters.
func (l *PrefetchLedger) register(reg *Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc(MetricPFUsefulTimely, func() uint64 { return l.totals[UsefulTimely] })
	reg.CounterFunc(MetricPFUsefulLate, func() uint64 { return l.totals[UsefulLate] })
	reg.CounterFunc(MetricPFUnused, func() uint64 { return l.totals[EvictedUnused] })
	reg.CounterFunc(MetricPFConflict, func() uint64 { return l.totals[ConflictVictim] })
}

// Record classifies one prefetched row. Vault -1 skips the per-vault
// breakdown (used by tests exercising the totals alone).
func (l *PrefetchLedger) Record(vault int, o PrefetchOutcome) {
	if l == nil {
		return
	}
	l.totals[o]++
	if vault < 0 {
		return
	}
	for vault >= len(l.perVault) {
		l.perVault = append(l.perVault, [outcomeCount]uint64{})
	}
	l.perVault[vault][o]++
}

// Total returns the count recorded for one outcome.
func (l *PrefetchLedger) Total(o PrefetchOutcome) uint64 {
	if l == nil {
		return 0
	}
	return l.totals[o]
}

// Scheme returns the prefetch engine label the ledger was created with.
func (l *PrefetchLedger) Scheme() string {
	if l == nil {
		return ""
	}
	return l.scheme
}

// LedgerVault is one vault's outcome counts in a LedgerSummary.
type LedgerVault struct {
	Vault          int    `json:"vault"`
	UsefulTimely   uint64 `json:"useful_timely"`
	UsefulLate     uint64 `json:"useful_late"`
	EvictedUnused  uint64 `json:"evicted_unused"`
	ConflictVictim uint64 `json:"conflict_victim"`
}

// LedgerSummary is the exportable prefetch efficacy report.
type LedgerSummary struct {
	Scheme         string        `json:"scheme"`
	UsefulTimely   uint64        `json:"useful_timely"`
	UsefulLate     uint64        `json:"useful_late"`
	EvictedUnused  uint64        `json:"evicted_unused"`
	ConflictVictim uint64        `json:"conflict_victim"`
	Vaults         []LedgerVault `json:"vaults,omitempty"`
}

// Classified returns the total number of prefetches the summary covers.
func (s *LedgerSummary) Classified() uint64 {
	if s == nil {
		return 0
	}
	return s.UsefulTimely + s.UsefulLate + s.EvictedUnused + s.ConflictVictim
}

// Summary folds the ledger into an exportable report. Vaults with no
// classified prefetches are elided.
func (l *PrefetchLedger) Summary() *LedgerSummary {
	if l == nil {
		return nil
	}
	s := &LedgerSummary{
		Scheme:         l.scheme,
		UsefulTimely:   l.totals[UsefulTimely],
		UsefulLate:     l.totals[UsefulLate],
		EvictedUnused:  l.totals[EvictedUnused],
		ConflictVictim: l.totals[ConflictVictim],
	}
	for v, row := range l.perVault {
		if row == ([outcomeCount]uint64{}) {
			continue
		}
		s.Vaults = append(s.Vaults, LedgerVault{
			Vault:          v,
			UsefulTimely:   row[UsefulTimely],
			UsefulLate:     row[UsefulLate],
			EvictedUnused:  row[EvictedUnused],
			ConflictVictim: row[ConflictVictim],
		})
	}
	return s
}
