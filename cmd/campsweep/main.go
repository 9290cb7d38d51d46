// Command campsweep sweeps one configuration knob across a list of values
// and prints a CSV of the headline metrics for each value — the generic
// engine behind the ablation studies in DESIGN.md §5.
//
// Sweeps run through the experiment orchestrator (internal/exp): cells run
// in parallel, SIGINT/SIGTERM cancel the campaign mid-simulation, -out
// checkpoints every completed cell to a JSONL store as it lands, and
// -resume skips cells that store already holds — an interrupted sweep
// picks up where it stopped without redoing work.
//
// Usage:
//
//	campsweep -knob ct -values 8,16,32,64 -mix HM2
//	campsweep -knob buffer -values 4,8,16,32 -scheme CAMPS-MOD
//	campsweep -knob threshold -values 1,2,4,8 -out sweep.jsonl
//	campsweep -knob threshold -values 1,2,4,8 -out sweep.jsonl -resume
//	campsweep -knob window -values 1,2,4,8,16 -timeout 2m
//	campsweep -knob tsv -values 0,40,10,2
//	campsweep -knob vaults -values 8,16,32
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"camps"
	"camps/internal/cliutil"
	"camps/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campsweep: ")

	var (
		name     = flag.String("knob", "", "knob to sweep (see -list)")
		values   = flag.String("values", "", "comma-separated values")
		mixID    = flag.String("mix", "HM2", "workload mix (HM1-4, LM1-4, MX1-4, DC1-2)")
		scheme   = flag.String("scheme", "CAMPS-MOD", "prefetching scheme ("+strings.Join(camps.SchemeNames(), ", ")+")")
		instr    = flag.Uint64("instr", 200_000, "measured instructions per core")
		seed     = flag.Uint64("seed", 1, "trace seed")
		parallel = flag.Int("parallel", 0, "concurrent simulations (0 = NumCPU)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget per cell attempt (0 = none)")
		retries  = flag.Int("retries", 0, "extra attempts for transiently failing cells")
		out      = flag.String("out", "", "checkpoint completed cells to this JSONL file")
		resume   = flag.Bool("resume", false, "skip cells already present in the -out checkpoint")
		compact  = flag.Bool("compact", false, "compact the -out checkpoint (keep the latest record per cell) and exit")
		faults   = flag.String("faults", "", "deterministic fault-injection spec applied to every cell; "+camps.FaultGrammar())
		check    = flag.Bool("check", false, "run the epoch invariant checker in every cell")
		list     = flag.Bool("list", false, "list knobs and exit")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		cliutil.PrintVersion(os.Stdout, "campsweep")
		return
	}
	if *list {
		knobs := exp.Knobs()
		names := make([]string, 0, len(knobs))
		for n := range knobs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-10s %s\n", n, knobs[n].Help)
		}
		return
	}
	if *compact {
		// Resumed campaigns re-append records the store already holds, so
		// long-lived checkpoints accumulate superseded lines; -compact
		// rewrites the file keeping only the latest record per cell.
		if *out == "" {
			log.Fatal("-compact needs -out to name the checkpoint")
		}
		st, err := exp.OpenStore(*out)
		if err != nil {
			log.Fatal(err)
		}
		kept, dropped, err := st.Compact()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("compact %s: %v", *out, err)
		}
		fmt.Printf("compacted %s: kept %d records, dropped %d superseded lines\n", *out, kept, dropped)
		return
	}
	if *values == "" {
		log.Fatal("need -values")
	}
	if *resume && *out == "" {
		log.Fatal("-resume needs -out to name the checkpoint")
	}
	var vals []int64
	for _, raw := range strings.Split(*values, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			log.Fatalf("bad value %q: %v", raw, err)
		}
		vals = append(vals, v)
	}
	spec := exp.Spec{
		Mixes: []string{*mixID}, Schemes: []string{*scheme}, Seeds: []uint64{*seed},
		Knob: *name, Values: vals, Instr: *instr, Faults: *faults, Check: *check,
	}
	cells, opts, err := spec.Expand(exp.Options{
		Parallelism: *parallel,
		CellTimeout: *timeout,
		Retries:     *retries,
		Checkpoint:  *out,
		Resume:      *resume,
		Progress: func(cr exp.CellResult) {
			state := "done"
			if cr.Resumed {
				state = "resumed"
			}
			fmt.Fprintf(os.Stderr, "%s %s=%d (attempt %d, %v)\n",
				state, cr.Knob, cr.Value, cr.Attempt, cr.Duration.Round(time.Millisecond))
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// SIGINT/SIGTERM cancel the campaign: in-flight simulations halt
	// within one epoch, and every finished cell is already fsync'd to the
	// checkpoint, so -resume completes the sweep later.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	results, stats, err := exp.Run(ctx, cells, opts)
	log.Print(stats)

	fmt.Printf("# sweep %s on %s under %v (%d instr/core, seed %d)\n",
		*name, cells[0].Mix.ID, cells[0].Scheme, *instr, cells[0].Seed)
	fmt.Println("value,ipc,amat_ns,conflict_rate,bufhit_rate,row_accuracy,energy_mJ,faults")
	for _, cr := range results {
		res := cr.Results
		var injected uint64
		if res.Faults != nil {
			injected = res.Faults.Total()
		}
		fmt.Printf("%d,%.4f,%.1f,%.4f,%.4f,%.4f,%.3f,%d\n",
			cr.Value, res.GeoMeanIPC, res.AMATps/1000, res.RowConflictRate,
			res.BufferHitRate, res.PrefetchAccuracy, res.Energy.Total()/1e9, injected)
	}

	if err != nil {
		if errors.Is(err, context.Canceled) && *out != "" {
			log.Printf("interrupted; rerun with -resume -out %s to finish", *out)
		}
		log.Fatal(err)
	}
}
