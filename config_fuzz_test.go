package camps_test

import (
	"context"
	"errors"
	"testing"

	"camps"
	"camps/internal/config"
)

// FuzzRunConfig mutates the scalar hardware parameters a run is most
// often reconfigured through: the core count, each cache level's size
// and ways, the vault and bank counts, the write queue, the page and
// scheduling policies and the prefetch-buffer size, plus the scheme. A
// config that fails SystemConfig.Validate must be refused by the run with
// ErrInvalidConfig; one that passes runs briefly under the invariant
// checker and must end cleanly or in ErrInvalidConfig, ErrInvariant or
// ErrAddressRange. No input may panic.
func FuzzRunConfig(f *testing.F) {
	d := camps.DefaultSystem()
	f.Add(int8(d.Processor.Cores), int32(d.L1.SizeBytes>>10), int16(d.L1.Ways),
		int32(d.L2.SizeBytes>>10), int16(d.L2.Ways), int32(d.L3.SizeBytes>>10), int16(d.L3.Ways),
		int16(d.HMC.Vaults), int8(d.HMC.BanksPerLayer), int16(d.HMC.WriteQueue),
		int8(d.HMC.PagePolicy), int8(d.HMC.Scheduler), int16(d.PFBuffer.Entries()), uint8(camps.CAMPSMOD))
	f.Fuzz(func(t *testing.T, cores int8, l1KB int32, l1Ways int16, l2KB int32, l2Ways int16,
		l3KB int32, l3Ways int16, vaults int16, banksPerLayer int8, writeQ int16,
		page, sched int8, pfRows int16, scheme uint8) {
		sys := camps.DefaultSystem()
		sys.Processor.Cores = int(cores)
		sys.L1.SizeBytes, sys.L1.Ways = int64(l1KB)<<10, int(l1Ways)
		sys.L2.SizeBytes, sys.L2.Ways = int64(l2KB)<<10, int(l2Ways)
		sys.L3.SizeBytes, sys.L3.Ways = int64(l3KB)<<10, int(l3Ways)
		sys.HMC.Vaults = int(vaults)
		sys.HMC.BanksPerLayer = int(banksPerLayer)
		sys.HMC.WriteQueue = int(writeQ)
		sys.HMC.PagePolicy = config.PagePolicy(page)
		sys.HMC.Scheduler = config.SchedPolicy(sched)
		sys.PFBuffer.SizeBytes = int64(pfRows) * int64(sys.PFBuffer.LineBytes)

		valid := sys.Validate() == nil
		if sys.Processor.Cores == 0 {
			// A zero core count selects Table I (RunConfig.System's
			// zero value), so only Validate's verdict is checked.
			if valid {
				t.Fatal("Validate accepted zero cores")
			}
			return
		}
		// Keep an accepted config's footprint to a short run: at most 16
		// cores, 4 MiB private and 64 MiB shared caches, 64 vaults and
		// 1024 buffered rows per vault.
		if valid && (cores > 16 || l1KB > 4<<10 || l2KB > 4<<10 || l3KB > 64<<10 || vaults > 64 || pfRows > 1024) {
			t.Skip("valid, but too large for a short run")
		}
		benches := make([]string, max(int(cores), 0))
		for i := range benches {
			benches[i] = []string{"mcf", "lbm", "gcc", "astar"}[i%4]
		}
		rc := camps.RunConfig{
			System:          sys,
			Scheme:          camps.AllSchemes()[int(scheme)%len(camps.AllSchemes())],
			Mix:             camps.Mix{ID: "FUZZ", Benchmarks: benches},
			WarmupRefs:      500,
			MeasureInstr:    2_000,
			CheckInvariants: true,
		}
		_, err := camps.RunContext(context.Background(), rc)
		switch {
		case !valid:
			if !errors.Is(err, camps.ErrInvalidConfig) {
				t.Fatalf("Validate rejects the config, but the run returned %v, want ErrInvalidConfig", err)
			}
		case err != nil && !errors.Is(err, camps.ErrInvalidConfig) &&
			!errors.Is(err, camps.ErrInvariant) && !errors.Is(err, camps.ErrAddressRange):
			t.Fatalf("run failed with an untyped error: %v", err)
		}
	})
}
