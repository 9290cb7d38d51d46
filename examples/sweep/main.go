// Parameter sweep: sensitivity of CAMPS to its two hardware knobs — the
// RUT utilization threshold (paper default 4) and the conflict-table size
// (paper default 32 entries per vault). These are the ablations DESIGN.md
// calls out beyond the paper's own evaluation.
//
// The sweeps run through the experiment orchestrator (internal/exp), so
// the cells of each sweep execute in parallel and Ctrl-C cancels the
// campaign mid-simulation.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"camps"
	"camps/internal/exp"
)

// sweep runs CAMPS-MOD on mixID across the named knob's values.
func sweep(ctx context.Context, knob string, values []int64) []exp.CellResult {
	spec := exp.Spec{
		Mixes: []string{mixID}, Schemes: []string{camps.CAMPSMOD.String()},
		Knob: knob, Values: values, Instr: 150_000,
	}
	cells, opts, err := spec.Expand(exp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	results, _, err := exp.Run(ctx, cells, opts)
	if err != nil {
		log.Fatal(err)
	}
	return results
}

const mixID = "HM2"

func main() {
	log.SetFlags(0)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("CAMPS-MOD sensitivity on %s\n\n", mixID)

	fmt.Println("RUT utilization threshold (paper: 4):")
	fmt.Printf("%10s %10s %12s %12s\n", "threshold", "IPC", "fetches", "accuracy")
	for _, cr := range sweep(ctx, "threshold", []int64{1, 2, 4, 8}) {
		r := cr.Results
		fmt.Printf("%10d %10.4f %12d %11.1f%%\n",
			cr.Value, r.GeoMeanIPC, r.PrefetchesIssued, r.PrefetchAccuracy*100)
	}

	fmt.Println("\nconflict-table entries per vault (paper: 32):")
	fmt.Printf("%10s %10s %12s %12s\n", "entries", "IPC", "fetches", "accuracy")
	for _, cr := range sweep(ctx, "ct", []int64{8, 16, 32, 64}) {
		r := cr.Results
		fmt.Printf("%10d %10.4f %12d %11.1f%%\n",
			cr.Value, r.GeoMeanIPC, r.PrefetchesIssued, r.PrefetchAccuracy*100)
	}
}
