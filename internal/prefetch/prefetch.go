// Package prefetch implements the memory-side prefetch engines compared in
// the CAMPS paper, plus extension engines, listed in one closed table
// indexed by Scheme (see schemes.go). Every engine lives in a vault
// controller, observes the demand stream to that vault's banks, and
// directs whole-row fetches into the vault's prefetch buffer. Two optional
// hooks reach further: EpochObserver (the controller's per-epoch efficacy
// feedback) and BufferHitObserver (demands the buffer served).
//
// The engines:
//
//   - BASE: fetch the whole row on the first access to it (and precharge),
//     the paper's aggressive baseline.
//   - BASE-HIT: fetch a row once two or more requests for it are pending in
//     the read queue.
//   - MMD: a stand-in for the dynamic-degree memory-side prefetcher of
//     Yedlapalli et al. [8]: sequential-row prefetch whose degree adapts to
//     measured usefulness each epoch; LRU buffer management.
//   - CAMPS: the paper's conflict-aware engine built on the Row Utilization
//     Table (RUT) and Conflict Table (CT).
//   - CAMPS-MOD: CAMPS plus the utilization+recency buffer replacement
//     policy (the policy itself lives in package pfbuffer).
//   - NONE: prefetching disabled (the unmodified HMC).
//   - ASD: row-granularity Adaptive Stream Detection (Hur & Lin [10]).
//   - ghb: GHB/AIT width prefetcher over the row-activation stream.
//   - sisb: temporal next-address prediction with a bounded training table.
//   - bestoffset: Best-Offset offset scoring at row granularity.
//   - hybrid: set-duels candidate engines (by default MMD and CAMPS) per
//     vault at epoch granularity.
package prefetch

import (
	"camps/internal/config"
	"camps/internal/dram"
)

// Request describes one demand access as seen by a vault controller.
type Request struct {
	Bank  int
	Row   int64
	Line  int // cache line index within the row
	Write bool
}

// Fetch directs the vault controller to bring a whole row into the
// prefetch buffer.
type Fetch struct {
	Bank int
	Row  int64
	// CloseAfter asks the controller to precharge the bank once the row
	// has been copied (CAMPS and BASE do; the open-page schemes do not).
	CloseAfter bool
	// Touched is the bitmap of lines already served from the DRAM row
	// buffer before this fetch (the trigger accesses); it seeds the
	// prefetch-buffer entry's utilization counter. It bounds LinesPerRow
	// at 64, which config.Validate enforces (config.ErrLineBitmap).
	Touched uint64
}

// QueueView gives engines read-only visibility into the vault's read queue
// (BASE-HIT's trigger condition).
type QueueView interface {
	// PendingReadsForRow counts queued demand reads targeting the row.
	PendingReadsForRow(bank int, row int64) int
}

// Context carries the vault-level facts engines need.
type Context struct {
	Banks       int
	LinesPerRow int
	RowsPerBank int64
	Queue       QueueView
}

// Engine is a memory-side prefetch engine. Engines are single-vault and are
// driven synchronously by the vault controller's event loop, so they need
// no internal locking. The demand stream to the banks is all an engine is
// told; two optional hooks add more. EpochObserver receives
// controller-maintained efficacy feedback at a fixed request cadence, and
// BufferHitObserver hears of the demands the prefetch buffer served.
type Engine interface {
	// OnDemandServed fires when a demand request has been serviced from a
	// DRAM bank (not the prefetch buffer). state is the row-buffer outcome
	// the request saw; displacedRow is the row that was closed to make room
	// when state is RowConflict, else dram.NoRow. The returned fetches are
	// executed by the controller as bank bandwidth allows.
	//
	// The result is borrowed: engines append into a buffer they own and
	// reuse, so the slice is valid only until the engine's next
	// OnDemandServed call. Callers consume or copy it before then. No
	// directives is nil.
	OnDemandServed(req Request, state dram.RowState, displacedRow int64) []Fetch
}

// EpochStats is the per-epoch efficacy feedback the vault controller hands
// an EpochObserver engine. The eviction-outcome fields use the prefetch
// ledger's taxonomy (obs.PrefetchOutcome) but are tracked by the controller
// itself, so they are available whether or not attribution is enabled.
type EpochStats struct {
	Demands uint64 // demand requests served from banks this epoch

	UsefulTimely    uint64 // evicted rows used, resident before first demand
	UsefulLate      uint64 // evicted rows used, but a demand beat the fill
	EvictedUnused   uint64 // evicted rows never referenced
	ConflictVictims uint64 // fetch directives dropped before residency
}

// EpochObserver is the optional adaptation hook: engines that implement it
// receive OnEpoch every EpochRequests demand requests, immediately before
// the triggering request's own OnDemandServed. This is the adaptation point
// MMD previously buried internally and the signal the hybrid meta-engine
// duels candidates on.
type EpochObserver interface {
	// EpochRequests returns the epoch length in demand requests.
	EpochRequests() int
	// OnEpoch receives the finished epoch's accumulated stats.
	OnEpoch(st EpochStats)
}

// BufferHitObserver is the optional buffer-hit hook: engines that
// implement it receive OnBufferHit for every demand request the prefetch
// buffer served instead of a bank. The hybrid meta-engine credits its
// candidates' shadow predictions through it.
type BufferHitObserver interface {
	OnBufferHit(req Request)
}

// New constructs the scheme's engine using the given configuration and
// vault context. It panics on a scheme outside the table; use
// ParseScheme to validate names first.
func New(s Scheme, cfg config.Config, ctx Context) Engine {
	if s == Hybrid {
		return newHybrid(cfg, ctx)
	}
	return Describe(s).New(cfg, ctx)
}

// rowKey packs (bank, row) into one comparable key for the history-based
// engines. Rows per bank is bounded far below 2^40 in any valid geometry.
func rowKey(bank int, row int64) int64 { return int64(bank)<<40 | row }

// rowKeyBank and rowKeyRow unpack a rowKey.
func rowKeyBank(k int64) int  { return int(k >> 40) }
func rowKeyRow(k int64) int64 { return k & (1<<40 - 1) }

// mix64 is a splitmix64-style finalizer used to hash table indices; fixed
// constants keep every run deterministic.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
