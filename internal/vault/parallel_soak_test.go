package vault_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"camps"
)

// TestParallelSoak runs two identical simulations at once on separate
// goroutines, with every fault class active, long enough that the vault
// controllers, their fault sites and their refresh daemons cycle many
// thousands of times. Independent simulations must share no mutable
// state, so under -race any package-level write reachable from a vault
// shows up here, and the two runs must export identical results.
func TestParallelSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short mode")
	}
	spec, err := camps.ParseFaultSpec(
		"linkcrc=1e-3,stall=1e-4,stallfor=50ns,poison=2e-3,bankfail=100us,bankfor=2us,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	rc := camps.RunConfig{
		Scheme:       camps.CAMPSMOD,
		WarmupRefs:   5_000,
		MeasureInstr: 60_000,
		Seed:         7,
		Faults:       spec,
	}
	rc.Mix, err = camps.MixByID("HM1")
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg      sync.WaitGroup
		results [2]camps.Results
		errs    [2]error
	)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = camps.RunContext(context.Background(), rc)
		}(i)
	}
	wg.Wait()
	var exports [2][]byte
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res.EventsFired == 0 || res.Instructions == 0 {
			t.Fatalf("soak run did no work: %d events, %d instructions",
				res.EventsFired, res.Instructions)
		}
		if exports[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Error("concurrent runs of one configuration exported different results")
	}
}
