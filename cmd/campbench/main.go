// Command campbench regenerates the CAMPS paper's evaluation: it runs the
// full (12 mixes × 5 schemes) grid and prints Figures 5 through 9 as text
// tables (or CSV), plus the per-class summary the paper quotes in prose.
//
// Usage:
//
//	campbench                 # all figures, full grid
//	campbench -fig 6          # one figure
//	campbench -csv            # machine-readable output
//	campbench -instr 200000   # faster, lower-fidelity run
//
// The simulator's own speed is measured by the benchmark in perfbench/
// (bash perfbench/run.sh), not by this command.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"camps"
	"camps/internal/cliutil"
	"camps/internal/exp"
	"camps/internal/obs"
	"camps/internal/plot"
	"camps/internal/report"
	"camps/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campbench: ")

	var (
		fig        = flag.Int("fig", 0, "figure to reproduce (5-9); 0 = all")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		chart      = flag.Bool("plot", false, "render figures as ASCII bar charts")
		reportPath = flag.String("report", "", "also write a Markdown reproduction report to this file")
		instr      = flag.Uint64("instr", 400_000, "measured instructions per core")
		warmup     = flag.Uint64("warmup", 50_000, "cache-warmup references per core")
		seed       = flag.Uint64("seed", 1, "trace seed")
		seeds      = flag.Int("seeds", 1, "run this many seeds (seed, seed+1, ...) and average the figures")
		parallel   = flag.Int("parallel", 0, "concurrent simulations (0 = NumCPU)")
		quiet      = flag.Bool("quiet", false, "suppress progress lines")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and runtime metrics on this address (e.g. localhost:6060)")
		serveAddr  = flag.String("serve-metrics", "", "stream one snapshot per finished grid cell as server-sent events on this address")
		version    = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		cliutil.PrintVersion(os.Stdout, "campbench")
		return
	}
	if *pprofAddr != "" {
		cliutil.StartPprof(*pprofAddr, log.Printf)
	}
	if *fig != 0 && (*fig < 5 || *fig > 9) {
		log.Fatalf("figure %d out of range: the paper has figures 5-9", *fig)
	}
	if *seeds < 1 {
		log.Fatal("-seeds must be at least 1")
	}

	opts := exp.Options{
		WarmupRefs:   *warmup,
		MeasureInstr: *instr,
		Parallelism:  *parallel,
	}
	var stream *obs.StreamServer
	if *serveAddr != "" {
		stream, _ = obs.StartStream(*serveAddr, log.Printf)
	}
	if !*quiet || stream != nil {
		progress := !*quiet
		opts.Progress = func(cr exp.CellResult) {
			if progress {
				// One campaign interleaves the seeds, so name the cell's.
				seedTag := ""
				if *seeds > 1 {
					seedTag = fmt.Sprintf(" seed=%d", cr.Seed)
				}
				fmt.Fprintf(os.Stderr, "done %-4s %-9v%s ipc=%.4f amat=%.1fns acc=%.2f\n",
					cr.Mix, cr.Scheme, seedTag, cr.Results.GeoMeanIPC, cr.Results.AMATps/1000, cr.Results.LineAccuracy)
			}
			// Each finished grid cell becomes one synthetic snapshot on the
			// stream: headline results keyed like the simulator's own
			// metrics, tagged mix/scheme so dashboards can pivot on both.
			stream.Publish(obs.Snapshot{
				AtPs: int64(cr.Results.ElapsedSim),
				Tag:  fmt.Sprintf("%s/%v", cr.Mix, cr.Scheme),
				Gauges: map[string]float64{
					"bench.geomean_ipc":   cr.Results.GeoMeanIPC,
					"bench.amat_ps":       cr.Results.AMATps,
					"bench.line_accuracy": cr.Results.LineAccuracy,
					"bench.conflict_rate": cr.Results.RowConflictRate,
				},
			})
		}
	}

	seedList := make([]uint64, *seeds)
	for i := range seedList {
		seedList[i] = *seed + uint64(i)
	}
	cells := exp.Grid(workload.Mixes(), camps.Schemes(), seedList)
	results, stats, err := exp.Run(context.Background(), cells, opts)
	if !*quiet {
		log.Print(stats)
	}
	if err != nil {
		log.Fatal(err)
	}

	figNums := []int{5, 6, 7, 8, 9}
	tables := report.Figures(results)
	if *fig != 0 {
		figNums = []int{*fig}
		tables = tables[*fig-5 : *fig-4]
	}

	for i, t := range tables {
		switch {
		case *csv:
			fmt.Println(t.Title)
			fmt.Print(t.CSV())
		case *chart:
			po := plot.Options{Width: 40}
			if figNums[i] == 5 || figNums[i] == 9 {
				po.UseBaseline = true
				po.Baseline = 1.0
			}
			fmt.Println(plot.Bars(t, po))
		default:
			fmt.Println(t.String())
		}
	}

	if *fig == 0 || *fig == 5 {
		f5 := tables[0]
		lastCol := len(f5.Columns) - 1
		groups := report.GroupAverages(f5, lastCol)
		fmt.Println("per-class CAMPS-MOD speedup over BASE (paper: HM +24.9%, LM +9.4%, MX +19.6%):")
		for _, g := range []string{"HM", "LM", "MX"} {
			if v, ok := groups[g]; ok {
				fmt.Printf("  %s %+.1f%%\n", g, (v-1)*100)
			}
		}
		fmt.Println(report.Summary(results))
	}

	if *reportPath != "" {
		md := report.Markdown(results, "CAMPS reproduction report")
		if err := exp.AtomicWriteFile(*reportPath, []byte(md), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *reportPath)
	}
}
