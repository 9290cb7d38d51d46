package camps_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"camps"
	"camps/internal/obs"
)

// TestParallelMatchesSerial checks that simulations running in parallel
// reproduce a serial run byte for byte. For each mix and fault
// environment it runs one simulation alone, then three more at once on
// separate goroutines — the way an exp campaign runs cells — with
// RunConfig.Workers set to 2, 4 and 8. Workers is ignored, so every
// export (metrics, attribution tables, fault counters) and EventsFired
// must match the serial run; under -race, any state shared between
// simulations shows up here as a race or a diff.
func TestParallelMatchesSerial(t *testing.T) {
	faults := map[string]string{
		"clean":    "",
		"linkcrc":  "linkcrc=2e-3,seed=3",
		"blackout": "stall=1e-3,stallfor=50ns,bankfail=50us,bankfor=1us,seed=3",
	}
	for _, mixID := range []string{"HM1", "LM2", "MX1"} {
		for fname, ftext := range faults {
			t.Run(mixID+"/"+fname, func(t *testing.T) {
				rc := camps.RunConfig{
					Scheme:       camps.CAMPSMOD,
					WarmupRefs:   2_000,
					MeasureInstr: 20_000,
					Seed:         42,
				}
				mix, err := camps.MixByID(mixID)
				if err != nil {
					t.Fatal(err)
				}
				rc.Mix = mix
				if ftext != "" {
					spec, err := camps.ParseFaultSpec(ftext)
					if err != nil {
						t.Fatal(err)
					}
					rc.Faults = spec
				}

				// Each run gets its own obs suite with attribution on, so
				// the export also covers the span and ledger paths (a run
				// reusing a suite would accumulate across runs and poison
				// the comparison).
				run := func(workers int) (camps.Results, []byte, error) {
					prc := rc
					prc.Workers = workers
					suite := obs.NewSuite(1024)
					suite.EnableAttribution(prc.Scheme.String())
					prc.Obs = suite
					res, err := camps.RunContext(context.Background(), prc)
					if err != nil {
						return res, nil, fmt.Errorf("workers=%d: %w", workers, err)
					}
					buf, err := json.MarshalIndent(res, "", "  ")
					return res, buf, err
				}

				serial, want, err := run(1)
				if err != nil {
					t.Fatal(err)
				}
				workerCounts := []int{2, 4, 8}
				results := make([]camps.Results, len(workerCounts))
				exports := make([][]byte, len(workerCounts))
				errs := make([]error, len(workerCounts))
				var wg sync.WaitGroup
				for i, workers := range workerCounts {
					wg.Add(1)
					go func(i, workers int) {
						defer wg.Done()
						results[i], exports[i], errs[i] = run(workers)
					}(i, workers)
				}
				wg.Wait()
				for i, workers := range workerCounts {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					if !bytes.Equal(want, exports[i]) {
						t.Errorf("workers=%d diverges from serial:\n%s",
							workers, firstDiff(want, exports[i]))
					}
					if results[i].EventsFired != serial.EventsFired {
						t.Errorf("workers=%d: EventsFired %d, serial %d",
							workers, results[i].EventsFired, serial.EventsFired)
					}
				}
			})
		}
	}
}

// firstDiff renders the neighbourhood of the first byte where a and b
// disagree, which localizes a divergence inside a large JSON export.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 200
	if lo < 0 {
		lo = 0
	}
	end := func(s []byte) int {
		if i+200 < len(s) {
			return i + 200
		}
		return len(s)
	}
	return fmt.Sprintf("first divergence at byte %d\nserial: ...%s...\nparallel: ...%s...",
		i, a[lo:end(a)], b[lo:end(b)])
}
