// Package camps is a from-scratch reproduction of "CAMPS: Conflict-Aware
// Memory-Side Prefetching Scheme for Hybrid Memory Cube" (Rafique & Zhu,
// ICPP 2018): a cycle-approximate simulator of an 8-core processor with a
// three-level cache hierarchy in front of a 32-vault HMC whose vault
// controllers host memory-side prefetch engines and per-vault prefetch
// buffers.
//
// The package is the public API over the internal substrates: configure a
// run with RunConfig, execute it with RunContext, and read the paper's
// metrics from Results. The five prefetching schemes of the paper's
// evaluation (BASE, BASE-HIT, MMD, CAMPS, CAMPS-MOD) are selected per run.
//
// Quick start:
//
//	mix, _ := camps.MixByID("HM1")
//	res, err := camps.RunContext(context.Background(), camps.RunConfig{
//		Scheme: camps.CAMPSMOD,
//		Mix:    mix,
//	})
//	fmt.Println(res.GeoMeanIPC, res.RowConflictRate)
package camps

import (
	"context"
	"fmt"

	"camps/internal/cache"
	"camps/internal/config"
	"camps/internal/cpu"
	"camps/internal/energy"
	"camps/internal/fault"
	"camps/internal/hmc"
	"camps/internal/obs"
	"camps/internal/pfbuffer"
	"camps/internal/prefetch"
	"camps/internal/sim"
	"camps/internal/stats"
	"camps/internal/trace"
	"camps/internal/vault"
	"camps/internal/workload"
)

// Scheme identifies a memory-side prefetching scheme.
type Scheme = prefetch.Scheme

// The five schemes evaluated in the paper, the no-prefetch reference, and
// the extension engines: the whole closed set of the prefetch package's
// scheme table, one constant per entry.
const (
	BASE       = prefetch.Base
	BASEHIT    = prefetch.BaseHit
	MMD        = prefetch.MMD
	CAMPS      = prefetch.CAMPS
	CAMPSMOD   = prefetch.CAMPSMOD
	NONE       = prefetch.None
	ASD        = prefetch.ASD
	GHB        = prefetch.GHB
	SISB       = prefetch.SISB
	BESTOFFSET = prefetch.BestOffset
	HYBRID     = prefetch.Hybrid
)

// Schemes returns the paper's five schemes in presentation order.
func Schemes() []Scheme { return prefetch.Schemes() }

// AllSchemes returns every scheme in Scheme order, including the NONE
// reference and the extension engines.
func AllSchemes() []Scheme { return prefetch.AllSchemes() }

// SchemeNames returns every engine's canonical name in Scheme order (the
// list CLIs derive their help text from).
func SchemeNames() []string { return prefetch.Names() }

// Hardware policy knobs, re-exported for ablation studies; see the config
// package for semantics.
type (
	// PagePolicy selects open-page (the paper's) or closed-page rows.
	PagePolicy = config.PagePolicy
	// SchedPolicy selects FR-FCFS (the paper's) or FCFS scheduling.
	SchedPolicy = config.SchedPolicy
	// AddressInterleave selects the physical address mapping.
	AddressInterleave = config.AddressInterleave
)

// ParseScheme converts a scheme name ("BASE", "CAMPS-MOD", ...) to a value.
func ParseScheme(name string) (Scheme, error) { return prefetch.ParseScheme(name) }

// SystemConfig is the simulated-system configuration (Table I defaults).
type SystemConfig = config.Config

// DefaultSystem returns the Table I configuration.
func DefaultSystem() SystemConfig { return config.Default() }

// Mix is one multiprogrammed workload (Table II).
type Mix = workload.Mix

// Mixes returns the twelve Table II mixes.
func Mixes() []Mix { return workload.Mixes() }

// MixByID returns a mix by its Table II identifier (e.g. "HM1").
func MixByID(id string) (Mix, error) { return workload.MixByID(id) }

// ExtensionMixes returns the datacenter-style mixes (DC1, DC2) beyond the
// paper's Table II set.
func ExtensionMixes() []Mix { return workload.ExtensionMixes() }

// AnyMixByID resolves both Table II and extension mix identifiers.
func AnyMixByID(id string) (Mix, error) { return workload.AnyMixByID(id) }

// RunConfig describes one simulation run.
type RunConfig struct {
	// System is the hardware configuration; zero value means Table I.
	System SystemConfig
	// Scheme is the prefetching scheme under test.
	Scheme Scheme
	// Mix selects the workload. Exactly one of Mix or Readers is used:
	// Readers, when non-nil, supplies one trace per core directly.
	Mix     Mix
	Readers []trace.Reader
	// Seed decorrelates synthetic traces across runs (default 1).
	Seed uint64
	// WarmupRefs is the number of per-core references run through the
	// caches functionally before timing starts (default 50000), the
	// analogue of the paper's fast-forward + cache warmup.
	WarmupRefs uint64
	// Warm, when non-nil, replaces the run's functional warmup: the run
	// starts from this state, built by Warm for an equal WarmKey, and takes
	// it over, so each run needs its own (see WarmState.Clone). It cannot
	// be combined with Readers. Given to Warm instead, it is the state the
	// warmup is built in, whose memory Warm reuses.
	Warm *WarmState
	// MeasureInstr is the per-core instruction budget of the measured
	// region (default 400000), the analogue of the paper's 800M detailed
	// instructions, scaled to synthetic-trace size.
	MeasureInstr uint64
	// Energy is the energy model; zero value means the default model.
	Energy energy.Model
	// Obs, when non-nil, turns on the observability layer for this run:
	// every subsystem registers its counters/histograms with Obs.Registry,
	// structured events flow to Obs.Tracer, and a registry snapshot tagged
	// "epoch" is appended every EpochInterval of simulated time (plus one
	// tagged "final" after the run drains). One Suite serves exactly one
	// run; exp.Run gives each parallel cell its own.
	Obs *obs.Suite
	// EpochInterval is the simulated time between epoch snapshots (with
	// Obs), invariant checks (with CheckInvariants) and cancellation polls
	// (with a cancellable context); default 5us.
	EpochInterval sim.Time
	// Faults describes the run's deterministic fault environment (link CRC
	// errors, vault stalls, prefetch poisoning, bank blackouts). The zero
	// value injects nothing and leaves results bit-identical to a run
	// without the fault layer. Schedules derive from Seed and Faults.Seed,
	// so the same pair reproduces the same faults exactly.
	Faults fault.Spec
	// CheckInvariants arms the epoch invariant checker: every
	// EpochInterval (default 5us) the memory system's structural
	// invariants are validated, and a violation halts the run with an
	// error matching ErrInvariant instead of producing corrupt results.
	CheckInvariants bool
	// Workers is ignored: every run uses the one serial event engine, and
	// results are byte-identical whatever its value. It is kept only so
	// existing callers that set it still compile.
	Workers int
}

// FaultSpec re-exports the fault-injection spec for RunConfig.Faults.
type FaultSpec = fault.Spec

// FaultCounts re-exports the per-run fault-injection counters.
type FaultCounts = fault.Counts

// ParseFaultSpec parses the textual fault-spec grammar used by the CLIs'
// -faults flag (e.g. "linkcrc=1e-4,stall=5e-5,bankfail=200us"). Errors
// match ErrBadFaultSpec.
func ParseFaultSpec(text string) (FaultSpec, error) { return fault.ParseSpec(text) }

// FaultGrammar returns the -faults grammar description for CLI help.
func FaultGrammar() string { return fault.Grammar() }

// validate reports the configuration errors every run and warm build
// checks, after applyDefaults.
func (rc *RunConfig) validate() error {
	if !rc.Scheme.Valid() {
		return &apiError{msg: fmt.Sprintf("camps: unknown scheme %v", rc.Scheme), refs: []error{ErrInvalidConfig}}
	}
	if err := rc.System.Validate(); err != nil {
		return &apiError{msg: "camps: " + err.Error(), refs: []error{ErrInvalidConfig, err}}
	}
	if err := prefetch.ValidateConfig(rc.System); err != nil {
		return &apiError{msg: "camps: " + err.Error(), refs: []error{ErrInvalidConfig, err}}
	}
	span := uint64(rc.System.Processor.Cores) * workload.CoreRegion
	if limit := cache.AddressLimit(rc.System); rc.Readers == nil && limit < span {
		return &apiError{
			msg: fmt.Sprintf("camps: the caches tag addresses below %#x, short of the %d-core mix span %#x",
				limit, rc.System.Processor.Cores, span),
			refs: []error{ErrInvalidConfig},
		}
	}
	if err := rc.Faults.Validate(); err != nil {
		return fmt.Errorf("camps: %w", err) // matches ErrBadFaultSpec
	}
	return nil
}

func (rc *RunConfig) applyDefaults() {
	if rc.System.Processor.Cores == 0 {
		rc.System = config.Default()
	}
	if rc.Seed == 0 {
		rc.Seed = 1
	}
	if rc.WarmupRefs == 0 {
		rc.WarmupRefs = 50_000
	}
	if rc.MeasureInstr == 0 {
		rc.MeasureInstr = 400_000
	}
	if rc.Energy == (energy.Model{}) {
		rc.Energy = energy.Default()
	}
	if rc.EpochInterval <= 0 {
		rc.EpochInterval = 5 * sim.Microsecond
	}
}

// Results carries every metric the paper's figures use.
type Results struct {
	Mix    string
	Scheme Scheme

	// Performance (Figure 5 inputs).
	IPC        []float64 // per core
	GeoMeanIPC float64
	MPKI       []float64 // per core, L3 misses per kilo-instruction

	// Row-buffer behaviour (Figure 6).
	RowHits         uint64
	RowMisses       uint64
	RowConflicts    uint64
	RowConflictRate float64 // conflicts / demand bank accesses

	// Prefetching (Figure 7).
	PrefetchesIssued uint64
	PrefetchAccuracy float64 // fraction of prefetched rows referenced
	LineAccuracy     float64 // fraction of prefetched lines referenced
	BufferHitRate    float64 // demand requests served by the buffer
	// PrefetchTimeliness is the mean delay from a row's insertion to its
	// first demand hit, picoseconds (§2.3's "when to prefetch" measured).
	PrefetchTimeliness float64

	// Latency (Figure 8): mean main-memory read latency in picoseconds,
	// measured from L3-miss issue to data return at the HMC controller,
	// plus distribution quantiles (5 ns resolution up to 2 us; a quantile
	// past 2 us reads the largest observed latency).
	AMATps    float64
	AMATp50ps float64
	AMATp95ps float64
	AMATp99ps float64

	// Energy (Figure 9).
	Energy energy.Breakdown

	// Faults counts the injected faults when RunConfig.Faults was enabled
	// (nil on fault-free runs, so fault-free JSON output is unchanged).
	Faults *fault.Counts `json:",omitempty"`

	// Attribution is the per-cause latency breakdown and prefetch efficacy
	// ledger, filled only when the run's Obs suite had attribution enabled
	// (nil otherwise, so existing JSON output is unchanged).
	Attribution *obs.AttributionSummary `json:",omitempty"`

	// Bookkeeping.
	ElapsedSim sim.Time
	// EventsFired counts discrete events the engine executed for the run —
	// the numerator of campbench's events/sec throughput metric. Excluded
	// from JSON so metric exports are unchanged by its introduction.
	EventsFired   uint64 `json:"-"`
	Instructions  uint64
	MemReads      uint64
	MemWrites     uint64
	MSHRCoalesced uint64 // misses merged into an outstanding line fetch
	MSHRStalls    uint64 // misses that waited for a free MSHR entry
	VaultStats    vault.Stats
	BufferStats   pfbuffer.Stats

	// PerVault carries each vault's demand/conflict/buffer counters for
	// load-imbalance analysis (index = vault id).
	PerVault []VaultSummary

	// Caches summarizes hierarchy behaviour (includes warmup accesses).
	Caches CacheSummary
}

// VaultSummary is one vault's headline counters.
type VaultSummary struct {
	Demand     uint64
	BufferHits uint64
	Conflicts  uint64
	Fetches    uint64
	Refreshes  uint64
}

// CacheSummary aggregates the cache hierarchy's behaviour over the run.
type CacheSummary struct {
	L1Hits, L1Misses uint64 // across all private L1s
	L2Hits, L2Misses uint64 // across all private L2s
	L3Hits, L3Misses uint64
}

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func hitRate(h, m uint64) float64 {
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// L1HitRate returns the aggregate L1 hit rate.
func (c CacheSummary) L1HitRate() float64 { return hitRate(c.L1Hits, c.L1Misses) }

// L2HitRate returns the aggregate L2 hit rate (of L1 misses).
func (c CacheSummary) L2HitRate() float64 { return hitRate(c.L2Hits, c.L2Misses) }

// L3HitRate returns the shared L3 hit rate (of L2 misses).
func (c CacheSummary) L3HitRate() float64 { return hitRate(c.L3Hits, c.L3Misses) }

// RunContext executes one simulation under ctx and returns its
// measurements. Cancellation is honored at engine-epoch granularity: a
// daemon watcher polls ctx every EpochInterval of simulated time (default
// 5us) and halts the event engine mid-flight, so a long run stops within
// one epoch of the cancellation instead of draining. A cancelled run
// returns an error wrapping ctx.Err(), so callers can test it with
// errors.Is(err, context.Canceled) or context.DeadlineExceeded.
func RunContext(ctx context.Context, rc RunConfig) (Results, error) {
	if err := ctx.Err(); err != nil {
		return Results{}, fmt.Errorf("camps: run cancelled before start: %w", err)
	}
	rc.applyDefaults()
	if err := rc.validate(); err != nil {
		return Results{}, err
	}
	hier, readers, err := rc.warmState(ctx)
	if err != nil {
		return Results{}, err
	}
	cores := rc.System.Processor.Cores

	eng := sim.NewEngine()
	cube := hmc.NewCube(eng, rc.System, rc.Scheme)
	// Fault injection: all schedules derive from (Seed, Faults.Seed), so
	// reruns with the same pair see identical faults. A disabled spec wires
	// nothing, keeping the fault-free fast path untouched.
	var inj *fault.Injector
	if rc.Faults.Enabled() {
		inj = fault.NewInjector(rc.Faults, rc.Seed)
		cube.SetFaults(inj)
	}
	var chk *sim.Checker
	if rc.CheckInvariants {
		chk = sim.NewChecker(eng, rc.EpochInterval)
		chk.Register(cube.Invariants()...)
		if rc.Obs != nil && rc.Obs.Spans != nil {
			chk.Register(sim.Invariant{Name: "span-attribution", Check: rc.Obs.Spans.CheckInvariant})
		}
	}
	// The shared L3 MSHR file sits between the cores and the cube: it
	// coalesces concurrent misses to one line and bounds distinct
	// outstanding fetches.
	mshrs := cache.NewMSHRFile(eng, cube, rc.System.L3MSHRs)

	l3Base := make([]uint64, cores)
	for core := 0; core < cores; core++ {
		l3Base[core] = hier.L3Misses(core)
	}

	remaining := cores
	onFinish := func(int) {
		remaining--
		if remaining == 0 {
			eng.Halt()
		}
	}
	cpus := make([]*cpu.Core, cores)
	for core := 0; core < cores; core++ {
		cpus[core] = cpu.NewCore(eng, rc.System, core, readers[core], hier, mshrs,
			rc.MeasureInstr, onFinish)
	}
	if rc.Obs != nil {
		// With attribution enabled, per-request spans open at the MSHR,
		// are charged along the link/crossbar/vault path, and retire when
		// data returns; the ledger classifies every prefetch's fate inside
		// the vaults.
		cube.Instrument(rc.Obs)
		inj.Instrument(rc.Obs.Registry, rc.Obs.Tracer) // nil-safe no-op when fault-free
		hier.Instrument(rc.Obs.Registry)
		mshrs.Instrument(rc.Obs)
		for _, c := range cpus {
			c.Instrument(rc.Obs.Registry)
		}
		// Epoch snapshots ride a daemon ticker: metrics collection must
		// never extend the simulation past its natural end.
		sim.NewDaemonTicker(eng, rc.EpochInterval, func() {
			rc.Obs.Snap("epoch", int64(eng.Now()))
			rc.Obs.Tracer.Emit(obs.Event{At: int64(eng.Now()), Type: obs.EvEpoch, Vault: -1})
		})
	}
	if ctx.Done() != nil {
		// Cancellation hook: poll the context on a daemon ticker so a
		// cancelled run halts within one epoch of simulated time. Daemon
		// scheduling guarantees the watcher never extends a run that
		// drains naturally.
		sim.NewHaltWatcher(eng, rc.EpochInterval, func() bool { return ctx.Err() != nil })
	}
	for _, c := range cpus {
		c.Start()
	}
	eng.Run()
	if err := ctx.Err(); err != nil {
		return Results{}, fmt.Errorf("camps: run cancelled at %v simulated: %w", eng.Now(), err)
	}
	if chk != nil {
		chk.Final()
		if err := chk.Err(); err != nil {
			return Results{}, fmt.Errorf("camps: %w", err) // matches ErrInvariant
		}
	}

	res := Results{
		Mix:         rc.Mix.ID,
		Scheme:      rc.Scheme,
		ElapsedSim:  eng.Now(),
		EventsFired: eng.Fired(),
	}
	if inj != nil {
		counts := inj.Counts()
		res.Faults = &counts
	}
	for core, c := range cpus {
		if err := c.Err(); err != nil {
			return Results{}, err
		}
		if !c.Finished() {
			return Results{}, fmt.Errorf("camps: core %d never completed its measured region", core)
		}
		res.IPC = append(res.IPC, c.IPC())
		instr := c.Instructions()
		res.Instructions += instr
		res.MemReads += c.MemReads()
		res.MemWrites += c.MemWrites()
		misses := hier.L3Misses(core) - l3Base[core]
		res.MPKI = append(res.MPKI, float64(misses)/float64(instr)*1000)
	}
	res.GeoMeanIPC = stats.GeoMean(res.IPC)

	cube.Flush()
	vs := cube.VaultStats()
	res.VaultStats = vs
	for i := 0; i < cube.Vaults(); i++ {
		s := cube.Vault(i).Stats()
		res.PerVault = append(res.PerVault, VaultSummary{
			Demand:     s.DemandReads.Value() + s.DemandWrites.Value(),
			BufferHits: s.BufferHits.Value(),
			Conflicts:  s.RowConflicts.Value(),
			Fetches:    s.FetchesIssued.Value(),
			Refreshes:  s.Refreshes.Value(),
		})
	}
	res.RowHits = vs.RowHits.Value()
	res.RowMisses = vs.RowMisses.Value()
	res.RowConflicts = vs.RowConflicts.Value()
	res.RowConflictRate = vs.ConflictRate()
	res.PrefetchesIssued = vs.FetchesIssued.Value()

	bs := cube.BufferStats()
	res.BufferStats = bs
	res.PrefetchAccuracy = bs.RowAccuracy()
	res.LineAccuracy = bs.LineAccuracy(rc.System.LinesPerRow())
	res.PrefetchTimeliness = bs.FirstUseDelay.Mean()
	if demand := vs.BufferHits.Value() + vs.BufferMisses.Value(); demand > 0 {
		res.BufferHitRate = float64(vs.BufferHits.Value()) / float64(demand)
	}

	res.MSHRCoalesced = mshrs.Coalesced()
	res.MSHRStalls = mshrs.Stalls()
	for core := 0; core < cores; core++ {
		res.Caches.L1Hits += hier.L1(core).Hits()
		res.Caches.L1Misses += hier.L1(core).Misses()
		res.Caches.L2Hits += hier.L2(core).Hits()
		res.Caches.L2Misses += hier.L2(core).Misses()
	}
	res.Caches.L3Hits = hier.L3().Hits()
	res.Caches.L3Misses = hier.L3().Misses()

	res.AMATps = cube.ReadAMAT().Mean()
	res.AMATp50ps = cube.ReadLatencyQuantile(0.50)
	res.AMATp95ps = cube.ReadLatencyQuantile(0.95)
	res.AMATp99ps = cube.ReadLatencyQuantile(0.99)

	var linkBytes uint64
	var linkSlept sim.Time
	for _, ls := range cube.LinkStats() {
		linkBytes += ls.ReqBytes + ls.RespBytes
		linkSlept += ls.ReqSlept + ls.RespSlept
	}
	// Each link has two directions; awake time = total direction-time
	// minus time spent in the low-power state.
	linkAwake := eng.Now()*sim.Time(2*rc.System.Links.Count) - linkSlept
	res.Energy = rc.Energy.Estimate(vs.BankOps, vs.BufferHits.Value(), linkBytes, linkAwake, eng.Now())

	if rc.Obs != nil {
		// Attribution summary after Flush so the ledger covers rows still
		// resident at end of run.
		res.Attribution = rc.Obs.Attribution()
		// The final snapshot lands after Flush, so it includes end-of-run
		// eviction/writeback accounting the epoch snapshots cannot see.
		rc.Obs.Snap("final", int64(eng.Now()))
	}
	return res, nil
}
