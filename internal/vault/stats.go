package vault

import (
	"camps/internal/dram"
	"camps/internal/stats"
)

// Stats aggregates everything a vault controller measures. Figures 6 and 7
// of the paper are computed from these counters; the AMAT figure (8) uses
// the service-latency accumulator combined with link latencies at the HMC
// level.
type Stats struct {
	// Demand traffic.
	DemandReads  stats.Counter
	DemandWrites stats.Counter

	// Prefetch buffer outcomes for demand requests (checked both at
	// arrival and again at service time).
	BufferHits   stats.Counter
	BufferMisses stats.Counter

	// Row-buffer outcomes for demand requests that reached a bank.
	RowHits      stats.Counter
	RowMisses    stats.Counter
	RowConflicts stats.Counter

	// Prefetch activity.
	FetchesIssued    stats.Counter // row fetches executed on a bank
	FetchesDropped   stats.Counter // directives discarded (duplicate/overflow)
	FetchesRedundant stats.Counter // directives whose row was already buffered
	RowWritebacks    stats.Counter // dirty rows stored back to banks

	// Background activity.
	Refreshes   stats.Counter
	WriteBursts stats.Counter // line writes drained to banks

	// Occupancy high-water marks.
	MaxReadQueue  int
	MaxWriteQueue int
	MaxFetchQueue int

	// Service latency of demand requests measured inside the vault
	// (arrival at the controller to data ready), picoseconds.
	ServiceLatency stats.LatencyAccum

	// Aggregated DRAM operation counts across the vault's banks, filled in
	// by Controller.CollectOps; input to the energy model.
	BankOps dram.Ops
}

// bankAccesses returns the number of demand requests serviced by banks.
func (s *Stats) bankAccesses() uint64 {
	return s.RowHits.Value() + s.RowMisses.Value() + s.RowConflicts.Value()
}

// ConflictRate returns row-buffer conflicts as a fraction of demand bank
// accesses (Figure 6's metric).
func (s *Stats) ConflictRate() float64 {
	total := s.bankAccesses()
	if total == 0 {
		return 0
	}
	return float64(s.RowConflicts.Value()) / float64(total)
}

// Merge accumulates another vault's stats into this one (used to aggregate
// across the cube's 32 vaults).
func (s *Stats) Merge(o *Stats) {
	s.DemandReads.Add(o.DemandReads.Value())
	s.DemandWrites.Add(o.DemandWrites.Value())
	s.BufferHits.Add(o.BufferHits.Value())
	s.BufferMisses.Add(o.BufferMisses.Value())
	s.RowHits.Add(o.RowHits.Value())
	s.RowMisses.Add(o.RowMisses.Value())
	s.RowConflicts.Add(o.RowConflicts.Value())
	s.FetchesIssued.Add(o.FetchesIssued.Value())
	s.FetchesDropped.Add(o.FetchesDropped.Value())
	s.FetchesRedundant.Add(o.FetchesRedundant.Value())
	s.RowWritebacks.Add(o.RowWritebacks.Value())
	s.Refreshes.Add(o.Refreshes.Value())
	s.WriteBursts.Add(o.WriteBursts.Value())
	if o.MaxReadQueue > s.MaxReadQueue {
		s.MaxReadQueue = o.MaxReadQueue
	}
	if o.MaxWriteQueue > s.MaxWriteQueue {
		s.MaxWriteQueue = o.MaxWriteQueue
	}
	if o.MaxFetchQueue > s.MaxFetchQueue {
		s.MaxFetchQueue = o.MaxFetchQueue
	}
	s.ServiceLatency.Merge(o.ServiceLatency)
	s.BankOps.Add(o.BankOps)
}
