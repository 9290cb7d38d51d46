package hmc

import (
	"errors"
	"testing"

	"camps/internal/fault"
	"camps/internal/prefetch"
	"camps/internal/sim"
)

// issueBatch drives n reads round-robin across vaults and returns the
// mean read latency in picoseconds.
func issueBatch(cube *Cube, eng *sim.Engine, n int) float64 {
	m := cube.mapping
	for i := 0; i < n; i++ {
		addr := m.encode(Location{Vault: i % 32, Bank: i % 16, Row: int64(i % 64), Line: i % 16})
		read(cube, addr, nil)
	}
	eng.Run()
	return cube.ReadAMAT().Mean()
}

func TestCubeZeroSpecIdenticalToDisabled(t *testing.T) {
	run := func(set bool) (float64, fault.Counts) {
		eng := sim.NewEngine()
		cube := NewCube(eng, testCfg(), prefetch.CAMPS)
		var inj *fault.Injector
		if set {
			inj = fault.NewInjector(fault.Spec{}, 1)
		}
		cube.SetFaults(inj) // nil injector is valid and injects nothing
		return issueBatch(cube, eng, 200), inj.Counts()
	}
	base, _ := run(false)
	zero, counts := run(true)
	if base != zero {
		t.Fatalf("zero-rate spec perturbed latency: %v vs %v", zero, base)
	}
	if counts != (fault.Counts{}) {
		t.Fatalf("zero-rate spec injected faults: %+v", counts)
	}
}

func TestCubeLinkCRCSlowsReads(t *testing.T) {
	run := func(spec fault.Spec) (float64, fault.Counts) {
		eng := sim.NewEngine()
		cube := NewCube(eng, testCfg(), prefetch.CAMPS)
		inj := fault.NewInjector(spec, 1)
		cube.SetFaults(inj)
		return issueBatch(cube, eng, 200), inj.Counts()
	}
	clean, _ := run(fault.Spec{})
	faulty, counts := run(fault.Spec{LinkCRCRate: 1, LinkMaxRetries: 1})
	if counts.LinkCRCErrors == 0 || counts.LinkRetries == 0 {
		t.Fatalf("rate-1 CRC spec injected nothing: %+v", counts)
	}
	if faulty <= clean {
		t.Fatalf("CRC retries did not slow reads: %v vs clean %v", faulty, clean)
	}
}

func TestCubeVaultStallSlowsReads(t *testing.T) {
	run := func(spec fault.Spec) (float64, fault.Counts) {
		eng := sim.NewEngine()
		cube := NewCube(eng, testCfg(), prefetch.CAMPS)
		inj := fault.NewInjector(spec, 1)
		cube.SetFaults(inj)
		return issueBatch(cube, eng, 64), inj.Counts()
	}
	clean, _ := run(fault.Spec{})
	faulty, counts := run(fault.Spec{VaultStallRate: 1, VaultStallTime: 200 * sim.Nanosecond})
	if counts.VaultStalls == 0 {
		t.Fatalf("rate-1 stall spec injected nothing: %+v", counts)
	}
	// Every read stalls 200ns on ingress; the mean must shift by at least
	// a large fraction of it (bank-level overlap can absorb a little).
	if faulty < clean+float64(100*sim.Nanosecond) {
		t.Fatalf("stalls shifted mean only %v -> %v", clean, faulty)
	}
}

func TestCubeBankBlackoutsCounted(t *testing.T) {
	eng := sim.NewEngine()
	cube := NewCube(eng, testCfg(), prefetch.CAMPS)
	inj := fault.NewInjector(fault.Spec{
		BankFailPeriod:   2 * sim.Microsecond,
		BankFailDuration: 500 * sim.Nanosecond,
	}, 1)
	cube.SetFaults(inj)
	// Hammer one bank long enough to cross several windows.
	m := cube.mapping
	for i := 0; i < 400; i++ {
		read(cube, m.encode(Location{Vault: 0, Bank: 0, Row: int64(i % 128)}), nil)
	}
	eng.Run()
	if inj.Counts().BankBlackouts == 0 {
		t.Fatal("sustained traffic never hit a blackout window")
	}
	if got := cube.ReadAMAT().Count(); got != 400 {
		t.Fatalf("only %d of 400 reads completed under blackouts", got)
	}
}

func TestCubePoisonForcesRefetch(t *testing.T) {
	run := func(spec fault.Spec) (*Cube, fault.Counts) {
		eng := sim.NewEngine()
		cube := NewCube(eng, testCfg(), prefetch.Base) // BASE fetches on first touch
		inj := fault.NewInjector(spec, 1)
		cube.SetFaults(inj)
		issueBatch(cube, eng, 200)
		cube.Flush()
		return cube, inj.Counts()
	}
	clean, _ := run(fault.Spec{})
	if clean.BufferStats().Inserts == 0 {
		t.Fatal("BASE produced no buffer inserts even without faults")
	}
	poisoned, counts := run(fault.Spec{PoisonRate: 1})
	if counts.PoisonedRows == 0 {
		t.Fatalf("rate-1 poison spec injected nothing: %+v", counts)
	}
	if got := poisoned.BufferStats().Inserts; got != 0 {
		t.Fatalf("poisoned fetches still inserted %d rows", got)
	}
	vs := poisoned.VaultStats()
	if vs.FetchesIssued.Value() == 0 {
		t.Fatal("no fetches issued under poisoning (nothing to poison)")
	}
}

// The acceptance-criterion test: a deliberately injected accounting bug
// must surface through the epoch invariant checker as a typed error, not
// as silently corrupted statistics.
func TestInvariantCheckerCatchesAccountingBug(t *testing.T) {
	eng := sim.NewEngine()
	cube := NewCube(eng, testCfg(), prefetch.CAMPS)
	chk := sim.NewChecker(eng, sim.Microsecond)
	chk.Register(cube.Invariants()...)

	m := cube.mapping
	for i := 0; i < 64; i++ {
		read(cube, m.encode(Location{Vault: i % 32, Row: int64(i)}), nil)
	}
	// The bug: a read counted as issued that never enters the pipeline.
	eng.At(500*sim.Nanosecond, func() { cube.reads.Inc() })
	eng.Run()
	chk.Final()

	err := chk.Err()
	if err == nil {
		t.Fatal("accounting bug not detected")
	}
	if !errors.Is(err, sim.ErrInvariant) {
		t.Fatalf("violation is not typed: %v", err)
	}
	var ie *sim.InvariantError
	if !errors.As(err, &ie) || ie.Name != "hmc-read-accounting" {
		t.Fatalf("wrong invariant reported: %v", err)
	}
}

// A clean run must pass every cube invariant, including the final check
// after the engine drains.
func TestInvariantCheckerCleanRun(t *testing.T) {
	for _, scheme := range prefetch.AllSchemes() {
		eng := sim.NewEngine()
		cube := NewCube(eng, testCfg(), scheme)
		chk := sim.NewChecker(eng, sim.Microsecond)
		chk.Register(cube.Invariants()...)
		issueBatch(cube, eng, 200)
		chk.Final()
		if err := chk.Err(); err != nil {
			t.Fatalf("%v: clean run violated invariant: %v", scheme, err)
		}
	}
}
