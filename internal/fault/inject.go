package fault

import (
	"camps/internal/obs"
	"camps/internal/sim"
)

// stream is a splitmix64 sequence owned by exactly one injection site and
// fault class. Site-local streams keep the fault schedule independent of
// how events from different components interleave: adding a vault or
// reordering equal-time events elsewhere cannot shift this site's draws.
type stream struct {
	state uint64
}

func (s *stream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *stream) float() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// mix folds words into a single well-distributed 64-bit value (the
// splitmix64 finalizer applied to a running combination). Used to derive a
// site stream's seed from (run seed, spec seed, fault class, site id).
func mix(words ...uint64) uint64 {
	h := uint64(0x8c72fba6f4a4bd21)
	for _, w := range words {
		h ^= w
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Fault classes, part of each site stream's key.
const (
	classLinkCRC uint64 = iota + 1
	classVaultStall
	classPoison
	classBankFail
)

// Counts aggregates every injection the layer performed during one run.
// It round-trips through JSON as part of camps.Results.
type Counts struct {
	// LinkCRCErrors counts packets that failed CRC at least once;
	// LinkRetries counts individual retransmissions (>= errors).
	LinkCRCErrors uint64 `json:"link_crc_errors"`
	LinkRetries   uint64 `json:"link_retries"`
	// VaultStalls counts delayed request deliveries.
	VaultStalls uint64 `json:"vault_stalls"`
	// PoisonedRows counts prefetch-buffer fills discarded as damaged.
	PoisonedRows uint64 `json:"poisoned_rows"`
	// BankBlackouts counts unavailability windows that actually blocked a
	// bank job (windows nothing tried to use are not counted).
	BankBlackouts uint64 `json:"bank_blackouts"`
}

// Total returns the sum of all injection counters.
func (c Counts) Total() uint64 {
	return c.LinkCRCErrors + c.LinkRetries + c.VaultStalls + c.PoisonedRows + c.BankBlackouts
}

// Injector owns one run's fault schedule. Like the event engine it is
// confined to a single goroutine; the orchestrator gives each parallel
// cell its own injector. A nil *Injector is valid everywhere and injects
// nothing.
type Injector struct {
	spec   Spec
	seed   uint64
	counts Counts

	// Observability (nil unless Instrument was called). Emit on a nil
	// tracer is a no-op, so injection sites carry no conditionals.
	tr *obs.Tracer
}

// NewInjector builds the injector for one run. The run seed and the spec
// seed both feed every site stream, so distinct runs of one spec (or
// distinct specs on one run seed) draw independent schedules. The spec's
// defaults are applied here; Validate should have been called first.
func NewInjector(spec Spec, runSeed uint64) *Injector {
	return &Injector{spec: spec.withDefaults(), seed: mix(runSeed, spec.Seed)}
}

// Spec returns the spec the injector was built from (defaults applied).
func (inj *Injector) Spec() Spec { return inj.spec }

// Counts returns the injections performed so far.
func (inj *Injector) Counts() Counts {
	if inj == nil {
		return Counts{}
	}
	return inj.counts
}

// Instrument registers the injector's counters with the observability
// registry under the fault.* namespace and publishes every injection as a
// structured trace event. Either argument may be nil. Call before the
// simulation starts.
func (inj *Injector) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	if inj == nil {
		return
	}
	inj.tr = tr
	if reg == nil {
		return
	}
	c := &inj.counts
	reg.CounterFunc("fault.link_crc_errors", func() uint64 { return c.LinkCRCErrors })
	reg.CounterFunc("fault.link_retries", func() uint64 { return c.LinkRetries })
	reg.CounterFunc("fault.vault_stalls", func() uint64 { return c.VaultStalls })
	reg.CounterFunc("fault.poisoned_rows", func() uint64 { return c.PoisonedRows })
	reg.CounterFunc("fault.bank_blackouts", func() uint64 { return c.BankBlackouts })
}

// LinkSite is one link direction's injection state. A nil *LinkSite (from
// a nil injector) injects nothing.
type LinkSite struct {
	inj  *Injector
	rng  stream
	id   int32
	dir  int32
	rate float64
	max  int
}

// Link returns the injection site for one direction of link id
// (dir 0 = request, 1 = response). Returns nil on a nil injector.
func (inj *Injector) Link(id, dir int) *LinkSite {
	if inj == nil {
		return nil
	}
	return &LinkSite{
		inj:  inj,
		rng:  stream{state: mix(inj.seed, classLinkCRC, uint64(id), uint64(dir))},
		id:   int32(id),
		dir:  int32(dir),
		rate: inj.spec.LinkCRCRate,
		max:  inj.spec.LinkMaxRetries,
	}
}

// PacketRetries draws the retransmission count for one packet sent at
// time at: 0 for a clean packet, otherwise the number of extra transfers
// the link must perform (bounded by the spec's retry cap; the packet is
// delivered after the last retry regardless).
func (s *LinkSite) PacketRetries(at sim.Time) int {
	if s == nil || s.rate <= 0 {
		return 0
	}
	retries := 0
	for retries < s.max && s.rng.float() < s.rate {
		retries++
	}
	if retries == 0 {
		return 0
	}
	s.inj.counts.LinkCRCErrors++
	s.inj.counts.LinkRetries += uint64(retries)
	s.inj.tr.Emit(obs.Event{At: int64(at), Type: obs.EvFaultLinkCRC,
		Vault: s.id, Bank: s.dir, Arg: int64(retries)})
	return retries
}

// VaultSite is one vault's injection state: ingress stalls, prefetch
// poisoning and bank blackout windows. A nil *VaultSite injects nothing.
type VaultSite struct {
	inj *Injector
	id  int32

	stallRNG  stream
	stallRate float64
	stallFor  sim.Time

	poisonRNG  stream
	poisonRate float64

	// Bank blackout windows: per-bank phase within the period, and the
	// index of the last window already counted (so a window blocking many
	// scheduling attempts counts once).
	period   sim.Time
	duration sim.Time
	phase    []sim.Time
	counted  []int64
}

// Vault returns the injection site for vault id with banks banks. Returns
// nil on a nil injector.
func (inj *Injector) Vault(id, banks int) *VaultSite {
	if inj == nil {
		return nil
	}
	v := &VaultSite{
		inj:        inj,
		id:         int32(id),
		stallRNG:   stream{state: mix(inj.seed, classVaultStall, uint64(id))},
		stallRate:  inj.spec.VaultStallRate,
		stallFor:   inj.spec.VaultStallTime,
		poisonRNG:  stream{state: mix(inj.seed, classPoison, uint64(id))},
		poisonRate: inj.spec.PoisonRate,
		period:     inj.spec.BankFailPeriod,
		duration:   inj.spec.BankFailDuration,
	}
	if v.period > 0 {
		v.phase = make([]sim.Time, banks)
		v.counted = make([]int64, banks)
		for b := range v.phase {
			// The phase stream is keyed per (vault,bank) and drawn once, so
			// window placement is independent of everything else.
			ps := stream{state: mix(inj.seed, classBankFail, uint64(id), uint64(b))}
			v.phase[b] = sim.Time(ps.next() % uint64(v.period))
			v.counted[b] = -1
		}
	}
	return v
}

// StallDelay draws one request's ingress stall: 0 for a clean delivery,
// otherwise the extra delay before the vault sees the request.
func (v *VaultSite) StallDelay(at sim.Time) sim.Time {
	if v == nil || v.stallRate <= 0 {
		return 0
	}
	if v.stallRNG.float() >= v.stallRate {
		return 0
	}
	v.inj.counts.VaultStalls++
	v.inj.tr.Emit(obs.Event{At: int64(at), Type: obs.EvFaultVaultStall,
		Vault: v.id, Bank: -1, Arg: int64(v.stallFor)})
	return v.stallFor
}

// PoisonInsert draws whether a row arriving in the prefetch buffer at time
// at is damaged and must be discarded.
func (v *VaultSite) PoisonInsert(bank int, row int64, at sim.Time) bool {
	if v == nil || v.poisonRate <= 0 {
		return false
	}
	if v.poisonRNG.float() >= v.poisonRate {
		return false
	}
	v.inj.counts.PoisonedRows++
	v.inj.tr.Emit(obs.Event{At: int64(at), Type: obs.EvFaultPoison,
		Vault: v.id, Bank: int32(bank), Row: row})
	return true
}

// BankBlockedUntil reports the end of the unavailability window covering
// bank at time now, or 0 when the bank is available. Window placement is
// pure arithmetic over the pre-drawn phase, so the answer does not depend
// on how often the scheduler asks.
func (v *VaultSite) BankBlockedUntil(bank int, now sim.Time) sim.Time {
	if v == nil || v.period <= 0 || bank >= len(v.phase) {
		return 0
	}
	t := now - v.phase[bank]
	if t < 0 {
		return 0 // before the bank's first window
	}
	k := int64(t / v.period)
	start := v.phase[bank] + sim.Time(k)*v.period
	end := start + v.duration
	if now >= end {
		return 0
	}
	if v.counted[bank] != k {
		v.counted[bank] = k
		v.inj.counts.BankBlackouts++
		v.inj.tr.Emit(obs.Event{At: int64(start), Type: obs.EvFaultBankFail,
			Vault: v.id, Bank: int32(bank), Arg: int64(v.duration)})
	}
	return end
}
