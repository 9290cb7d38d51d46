// Package config holds the simulated-system configuration. The defaults
// reproduce Table I of the CAMPS paper (ICPP 2018): an 8-core 3 GHz
// processor with a three-level cache hierarchy in front of a 32-vault HMC
// whose vault controllers run DDR3-1600-like DRAM timing and host a 16 KB
// fully associative prefetch buffer each.
package config

import (
	"errors"
	"fmt"

	"camps/internal/sim"
)

// Processor describes the core model.
type Processor struct {
	Cores      int   // number of cores
	FreqMHz    int64 // core clock
	IssueWidth int   // non-memory instructions retired per cycle
	WindowSize int   // max in-flight L1 misses per core (MLP window)

	// L2PrefetchDegree enables a core-side stride prefetcher on each
	// core's L2 miss stream with the given degree (0 disables it — the
	// paper's configuration). Used by the core-side vs memory-side
	// ablation motivated by the paper's §2.4.
	L2PrefetchDegree int
}

// CacheLevel describes one cache level.
type CacheLevel struct {
	SizeBytes  int64
	Ways       int
	LineBytes  int
	HitLatency int64 // in CPU cycles
	MSHRs      int
	Shared     bool
}

// DRAMTiming holds per-bank timing constraints in DRAM bus cycles.
// The paper fixes tRCD, tRP and tCL at 11 cycles (DDR3-1600); the remaining
// constraints use standard DDR3-1600 values so command interactions beyond
// the paper's three are still legal.
type DRAMTiming struct {
	TRCD  int64 // ACT -> RD/WR
	TRP   int64 // PRE -> ACT
	TCL   int64 // RD -> first data
	TBL   int64 // data burst occupancy for one 64B line
	TRAS  int64 // ACT -> PRE (min row open)
	TWR   int64 // end of write data -> PRE
	TRTP  int64 // RD -> PRE
	TCCD  int64 // RD -> RD / column-to-column
	TCWL  int64 // WR -> first data
	TRRD  int64 // ACT -> ACT, different banks in a vault
	TFAW  int64 // four-activation window per vault
	TRFC  int64 // refresh duration
	TREFI int64 // refresh interval
}

// PagePolicy selects what happens to a row after a demand column access.
type PagePolicy int

const (
	// OpenPage leaves the row open for potential row-buffer hits — the
	// paper's configuration (Table I).
	OpenPage PagePolicy = iota
	// ClosedPage precharges immediately after every demand access,
	// trading hits for conflict immunity; provided for ablations.
	ClosedPage
)

// String names the policy.
func (p PagePolicy) String() string {
	if p == ClosedPage {
		return "closed"
	}
	return "open"
}

// SchedPolicy selects the vault controller's request scheduler.
type SchedPolicy int

const (
	// FRFCFS is first-ready, first-come-first-serve [31] — the paper's
	// configuration: row-buffer hits bypass older requests.
	FRFCFS SchedPolicy = iota
	// FCFS serves strictly oldest-first; provided for ablations.
	FCFS
)

// String names the policy.
func (s SchedPolicy) String() string {
	if s == FCFS {
		return "FCFS"
	}
	return "FR-FCFS"
}

// AddressInterleave selects the physical address mapping.
type AddressInterleave int

const (
	// RoRaBaVaCo is the paper's mapping (Table I): row, rank, bank, vault,
	// column from MSB to LSB. Consecutive 1 KB blocks rotate across
	// vaults; rows of one bank are 512 KB apart.
	RoRaBaVaCo AddressInterleave = iota
	// RoRaVaBaCo swaps bank and vault: consecutive 1 KB blocks rotate
	// across the banks of one vault before moving to the next vault.
	RoRaVaBaCo
	// VaultXOR is RoRaBaVaCo with the vault index XOR-folded with the low
	// row bits, a classic conflict-spreading hash.
	VaultXOR
)

// String names the interleave.
func (a AddressInterleave) String() string {
	switch a {
	case RoRaVaBaCo:
		return "RoRaVaBaCo"
	case VaultXOR:
		return "VaultXOR"
	}
	return "RoRaBaVaCo"
}

// HMC describes the cube organization.
type HMC struct {
	Vaults        int
	Layers        int
	BanksPerLayer int // banks per vault per layer
	RowBytes      int // row buffer size
	RowsPerBank   int
	FreqMHz       int64 // DRAM bus clock (DDR3-1600 -> 800 MHz)
	ReadQueue     int
	WriteQueue    int
	PagePolicy    PagePolicy
	Scheduler     SchedPolicy
	Interleave    AddressInterleave
	// TSVGBps bounds the per-vault TSV data path used by whole-row
	// transfers (prefetch fetches and writebacks), in GB/s. 0 models the
	// paper's premise of effectively unlimited internal bandwidth; finite
	// values exist to test when that premise breaks (ablation).
	TSVGBps int64
	Timing  DRAMTiming
}

// Banks returns the number of banks in one vault.
func (h HMC) Banks() int { return h.Layers * h.BanksPerLayer }

// CapacityBytes returns the total cube capacity.
func (h HMC) CapacityBytes() int64 {
	return int64(h.Vaults) * int64(h.Banks()) * int64(h.RowsPerBank) * int64(h.RowBytes)
}

// Links describes the processor-to-cube serial links.
type Links struct {
	Count        int
	LanesPerDir  int
	LaneGbps     int64
	HeaderBytes  int      // packet header+tail overhead
	PropDelay    sim.Time // one-way propagation + SerDes latency
	SwitchDelay  sim.Time // crossbar traversal
	CtrlOverhead sim.Time // external HMC controller processing per packet

	// Link power management (an extension after Ahn et al. [13], which the
	// paper cites; disabled by default). A link direction idle for longer
	// than SleepAfter enters a low-power state and pays WakeLatency on the
	// next packet.
	SleepAfter  sim.Time // 0 disables power management
	WakeLatency sim.Time

	// VaultPortGBps bounds each vault's crossbar ingress port, serializing
	// request packets into the vault. 0 (default) leaves the crossbar a
	// pure fixed-latency switch.
	VaultPortGBps int64

	// RetryTurnaround is the protocol latency of one link-level CRC retry
	// (error detection + retry-pointer exchange) on top of the packet's
	// re-serialization. It is a hardware property; whether retries happen
	// at all is governed by the fault-injection spec.
	RetryTurnaround sim.Time
}

// BytesPerSecond returns one link's per-direction bandwidth in bytes/s.
func (l Links) BytesPerSecond() int64 {
	return int64(l.LanesPerDir) * l.LaneGbps * 1_000_000_000 / 8
}

// PFBuffer describes the per-vault prefetch buffer.
type PFBuffer struct {
	SizeBytes  int64
	LineBytes  int   // one entry = one DRAM row
	HitLatency int64 // CPU cycles
	// WritebackDirtyOnly stores only written-to rows back to the bank on
	// eviction. The paper's design writes every replaced row back ("more
	// frequent replacements of rows from the prefetch buffer back to
	// memory bank"), i.e. the buffer does not track per-row cleanliness;
	// that is the default (false). Setting true models a dirty-tracking
	// buffer and is exercised by the ablation benchmarks.
	WritebackDirtyOnly bool
}

// Entries returns the number of rows the buffer can hold.
func (p PFBuffer) Entries() int { return int(p.SizeBytes) / p.LineBytes }

// CAMPS holds the parameters of the CAMPS prefetch engine.
type CAMPS struct {
	UtilThreshold int // RUT counter value that triggers a row fetch (paper: 4)
	CTEntries     int // conflict-table entries per vault (paper: 32)
}

// MMD holds the parameters of the MMD comparison prefetcher.
type MMD struct {
	MaxDegree      int     // maximum rows prefetched per trigger
	TouchThreshold int     // distinct line touches confirming a row
	EpochRequests  int     // feedback epoch length in demand requests
	HighAccuracy   float64 // raise degree above this accuracy
	LowAccuracy    float64 // lower degree below this accuracy
}

// GHB holds the parameters of the ghb width prefetcher: a per-vault
// global history buffer of row activations with an address-index table
// hashed by activation delta.
type GHB struct {
	HistEntries int // global-history ring entries (power of two)
	AITEntries  int // address-index-table slots (power of two)
	Width       int // history chain occurrences consulted per trigger
	Degree      int // successors predicted per chain occurrence
}

// SISB holds the parameters of the sisb temporal next-address predictor:
// a bounded FIFO-evicted table of row-activation successors.
type SISB struct {
	TableEntries int // bounded successor-table capacity
	Degree       int // chained predictions issued per trigger
}

// BestOffset holds the parameters of the bestoffset engine: offset
// scoring rounds against a recent-request table, after Michaud's
// Best-Offset prefetcher, at row granularity.
type BestOffset struct {
	RREntries int // recent-request table slots (power of two)
	ScoreMax  int // offset score that ends a learning phase early
	RoundMax  int // full scoring rounds per learning phase
	BadScore  int // winning score at or below which prefetch disables
}

// Hybrid holds the parameters of the hybrid meta-engine, which set-duels
// registered engines per vault at epoch granularity.
type Hybrid struct {
	EpochRequests int // duel epoch length in demand requests
	ShadowEntries int // per-candidate shadow prediction slots (power of two)
	// Candidates names the engines to duel (prefetch registry names).
	// Empty means every registered fetching engine.
	Candidates []string
}

// Config is the full simulated-system configuration.
type Config struct {
	Processor  Processor
	L1         CacheLevel
	L2         CacheLevel
	L3         CacheLevel
	HMC        HMC
	Links      Links
	PFBuffer   PFBuffer
	CAMPS      CAMPS
	MMD        MMD
	GHB        GHB
	SISB       SISB
	BestOffset BestOffset
	Hybrid     Hybrid
}

// Default returns the Table I configuration.
func Default() Config {
	return Config{
		Processor: Processor{
			Cores:      8,
			FreqMHz:    3000,
			IssueWidth: 4,
			WindowSize: 8,
		},
		L1: CacheLevel{SizeBytes: 32 << 10, Ways: 2, LineBytes: 64, HitLatency: 2, MSHRs: 8},
		L2: CacheLevel{SizeBytes: 256 << 10, Ways: 4, LineBytes: 64, HitLatency: 6, MSHRs: 16},
		L3: CacheLevel{SizeBytes: 16 << 20, Ways: 16, LineBytes: 64, HitLatency: 20, MSHRs: 64, Shared: true},
		HMC: HMC{
			Vaults:        32,
			Layers:        8,
			BanksPerLayer: 2,
			RowBytes:      1 << 10,
			RowsPerBank:   8192, // 4 GiB cube
			FreqMHz:       800,  // DDR3-1600
			ReadQueue:     32,
			WriteQueue:    32,
			Timing: DRAMTiming{
				TRCD: 11, TRP: 11, TCL: 11,
				TBL: 4, TRAS: 28, TWR: 12, TRTP: 6,
				TCCD: 4, TCWL: 8, TRRD: 5, TFAW: 24,
				TRFC: 208, TREFI: 6240,
			},
		},
		Links: Links{
			Count:        4,
			LanesPerDir:  16,
			LaneGbps:     12, // 12.5 in the paper; integer Gbps keeps time math exact
			HeaderBytes:  16,
			PropDelay:    3200 * sim.Picosecond,
			SwitchDelay:  1250 * sim.Picosecond,
			CtrlOverhead: 1000 * sim.Picosecond,
			// HMC-style link retry: the retry pointer round trip costs about
			// one propagation each way on top of re-serialization.
			RetryTurnaround: 6400 * sim.Picosecond,
		},
		PFBuffer:   PFBuffer{SizeBytes: 16 << 10, LineBytes: 1 << 10, HitLatency: 22},
		CAMPS:      CAMPS{UtilThreshold: 4, CTEntries: 32},
		MMD:        MMD{MaxDegree: 4, TouchThreshold: 3, EpochRequests: 512, HighAccuracy: 0.75, LowAccuracy: 0.40},
		GHB:        GHB{HistEntries: 256, AITEntries: 256, Width: 2, Degree: 2},
		SISB:       SISB{TableEntries: 2048, Degree: 2},
		BestOffset: BestOffset{RREntries: 64, ScoreMax: 31, RoundMax: 100, BadScore: 1},
		Hybrid: Hybrid{
			EpochRequests: 256,
			ShadowEntries: 256,
			Candidates:    []string{"MMD", "CAMPS", "CAMPS-MOD", "ghb", "sisb", "bestoffset"},
		},
	}
}

// ErrLineBitmap reports a geometry whose rows hold more cache lines than
// the 64-bit per-row line bitmap (prefetch.Fetch.Touched) can represent.
var ErrLineBitmap = errors.New("config: lines per row exceeds 64-bit line bitmap")

// MaxCacheWays is the largest associativity a cache level accepts: its
// one-byte recency stamps rank at most 256 lines per set.
const MaxCacheWays = 256

// ErrCacheWays reports a cache level with more ways than its recency
// stamps can rank.
var ErrCacheWays = errors.New("config: cache ways exceed recency-stamp range")

// MinCacheLineBytes is the smallest cache line a level accepts: a cache
// keeps each way as one 64-bit word of tag<<3 | state, and 8-byte lines
// leave a tag of at most 61 bits for any 64-bit address.
const MinCacheLineBytes = 8

// ErrCacheLine reports a cache level whose lines are too small for its
// packed tag-and-state word.
var ErrCacheLine = errors.New("config: cache line too small for packed tag and state")

// MaxVaultBanks is the largest bank count per vault: the vault scheduler
// tracks banks with queued work in a 64-bit mask.
const MaxVaultBanks = 64

// ErrVaultBanks reports a vault with more banks than the scheduler's
// work mask can track.
var ErrVaultBanks = errors.New("config: banks per vault exceed 64-bit work mask")

// Validate checks internal consistency.
func (c Config) Validate() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(c.Processor.Cores > 0, "config: cores must be positive, got %d", c.Processor.Cores)
	check(c.Processor.FreqMHz > 0, "config: cpu frequency must be positive")
	check(c.Processor.IssueWidth > 0, "config: issue width must be positive")
	check(c.Processor.WindowSize > 0, "config: window size must be positive")
	for _, lvl := range []struct {
		name string
		l    CacheLevel
	}{{"L1", c.L1}, {"L2", c.L2}, {"L3", c.L3}} {
		check(lvl.l.SizeBytes > 0, "config: %s size must be positive", lvl.name)
		check(lvl.l.Ways > 0, "config: %s ways must be positive", lvl.name)
		check(lvl.l.LineBytes > 0 && isPow2(int64(lvl.l.LineBytes)),
			"config: %s line size must be a positive power of two", lvl.name)
		if lvl.l.Ways > 0 && lvl.l.LineBytes > 0 {
			sets := lvl.l.SizeBytes / int64(lvl.l.Ways) / int64(lvl.l.LineBytes)
			check(sets > 0 && isPow2(sets), "config: %s set count %d must be a power of two", lvl.name, sets)
		}
		check(lvl.l.MSHRs > 0, "config: %s MSHR count must be positive", lvl.name)
		if lvl.l.Ways > MaxCacheWays {
			errs = append(errs, fmt.Errorf("%w: %s has %d ways, at most %d",
				ErrCacheWays, lvl.name, lvl.l.Ways, MaxCacheWays))
		}
		if lvl.l.LineBytes > 0 && lvl.l.LineBytes < MinCacheLineBytes {
			errs = append(errs, fmt.Errorf("%w: %s has %d-byte lines, at least %d",
				ErrCacheLine, lvl.name, lvl.l.LineBytes, MinCacheLineBytes))
		}
	}
	check(c.L1.LineBytes == c.L2.LineBytes && c.L2.LineBytes == c.L3.LineBytes,
		"config: cache line sizes must match across levels")
	check(isPow2(int64(c.HMC.Vaults)), "config: vault count must be a power of two")
	check(isPow2(int64(c.HMC.Banks())), "config: banks per vault must be a power of two")
	if c.HMC.Banks() > MaxVaultBanks {
		errs = append(errs, fmt.Errorf("%w: %d banks per vault, at most %d",
			ErrVaultBanks, c.HMC.Banks(), MaxVaultBanks))
	}
	check(isPow2(int64(c.HMC.RowBytes)), "config: row size must be a power of two")
	check(isPow2(int64(c.HMC.RowsPerBank)), "config: rows per bank must be a power of two")
	check(c.HMC.RowBytes >= c.L3.LineBytes, "config: row must hold at least one cache line")
	check(c.HMC.ReadQueue > 0 && c.HMC.WriteQueue > 0, "config: vault queues must be positive")
	t := c.HMC.Timing
	check(t.TRCD > 0 && t.TRP > 0 && t.TCL > 0 && t.TBL > 0 && t.TRAS > 0,
		"config: core DRAM timing parameters must be positive")
	check(t.TREFI > t.TRFC, "config: tREFI (%d) must exceed tRFC (%d)", t.TREFI, t.TRFC)
	check(t.TFAW >= t.TRRD, "config: tFAW (%d) must be at least tRRD (%d)", t.TFAW, t.TRRD)
	check(c.Links.Count > 0 && c.Links.LanesPerDir > 0 && c.Links.LaneGbps > 0,
		"config: link parameters must be positive")
	check(c.Links.RetryTurnaround >= 0, "config: link retry turnaround must not be negative")
	check(c.PFBuffer.LineBytes == c.HMC.RowBytes,
		"config: prefetch buffer line (%d) must equal row size (%d)",
		c.PFBuffer.LineBytes, c.HMC.RowBytes)
	check(c.PFBuffer.Entries() > 0, "config: prefetch buffer must hold at least one row")
	check(c.CAMPS.UtilThreshold > 0, "config: CAMPS utilization threshold must be positive")
	check(c.CAMPS.CTEntries > 0, "config: CAMPS conflict table must have entries")
	check(c.MMD.MaxDegree > 0, "config: MMD max degree must be positive")
	check(c.MMD.TouchThreshold > 0, "config: MMD touch threshold must be positive")
	check(c.MMD.EpochRequests > 0, "config: MMD epoch must be positive")
	check(c.MMD.LowAccuracy < c.MMD.HighAccuracy,
		"config: MMD low-accuracy threshold must be below high-accuracy threshold")
	check(c.GHB.HistEntries > 0 && isPow2(int64(c.GHB.HistEntries)),
		"config: GHB history entries must be a positive power of two")
	check(c.GHB.AITEntries > 0 && isPow2(int64(c.GHB.AITEntries)),
		"config: GHB address-index entries must be a positive power of two")
	check(c.GHB.Width > 0, "config: GHB width must be positive")
	check(c.GHB.Degree > 0, "config: GHB degree must be positive")
	check(c.SISB.TableEntries > 0, "config: SISB table entries must be positive")
	check(c.SISB.Degree > 0, "config: SISB degree must be positive")
	check(c.BestOffset.RREntries > 0 && isPow2(int64(c.BestOffset.RREntries)),
		"config: best-offset RR entries must be a positive power of two")
	check(c.BestOffset.ScoreMax > 0, "config: best-offset score max must be positive")
	check(c.BestOffset.RoundMax > 0, "config: best-offset round max must be positive")
	check(c.BestOffset.BadScore >= 0, "config: best-offset bad score must not be negative")
	check(c.Hybrid.EpochRequests > 0, "config: hybrid epoch must be positive")
	check(c.Hybrid.ShadowEntries > 0 && isPow2(int64(c.Hybrid.ShadowEntries)),
		"config: hybrid shadow entries must be a positive power of two")
	if c.L3.LineBytes > 0 && c.LinesPerRow() > 64 {
		errs = append(errs, fmt.Errorf("%w: row of %d bytes holds %d lines of %d bytes",
			ErrLineBitmap, c.HMC.RowBytes, c.LinesPerRow(), c.L3.LineBytes))
	}
	return errors.Join(errs...)
}

// LinesPerRow returns cache lines per DRAM row.
func (c Config) LinesPerRow() int { return c.HMC.RowBytes / c.L3.LineBytes }

// CPUClock returns the core clock.
func (c Config) CPUClock() sim.Clock { return sim.NewClock(c.Processor.FreqMHz) }

// DRAMClock returns the DRAM bus clock.
func (c Config) DRAMClock() sim.Clock { return sim.NewClock(c.HMC.FreqMHz) }

func isPow2(v int64) bool { return v > 0 && v&(v-1) == 0 }
