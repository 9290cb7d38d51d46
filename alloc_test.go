package camps_test

import (
	"context"
	"runtime"
	"testing"

	"camps"
)

// TestSteadyStateAllocs is the whole-run allocation gate. A run allocates
// its model up front; after that, the event kernel, caches, vaults and
// prefetch engines reuse what they hold. Tripling the measured length of
// an HM1 run may therefore add only a handful of allocations, for every
// scheme. The budget leaves room for the runtime's own
// bookkeeping but not for one allocation per demand, fill or writeback,
// which would add thousands.
//
// Not parallel: runtime.MemStats counts every goroutine in the process.
func TestSteadyStateAllocs(t *testing.T) {
	const (
		shortInstr = 5_000
		longInstr  = 15_000
		budget     = 200
	)
	mix, err := camps.MixByID("HM1")
	if err != nil {
		t.Fatal(err)
	}
	mallocs := func(s camps.Scheme, instr uint64) int64 {
		rc := camps.RunConfig{Scheme: s, Mix: mix, Seed: 1, WarmupRefs: 2_000, MeasureInstr: instr}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := camps.RunContext(context.Background(), rc); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	for _, s := range camps.AllSchemes() {
		short := mallocs(s, shortInstr)
		long := mallocs(s, longInstr)
		t.Logf("%-10v %d allocs at %d instr/core, %+d at %d", s, short, shortInstr, long-short, longInstr)
		if long-short > budget {
			t.Errorf("%v: %d instr/core allocates %d more than %d instr/core (budget %d): the steady state allocates",
				s, longInstr, long-short, shortInstr, budget)
		}
	}
}
