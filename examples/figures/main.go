// Figures: run a reduced version of the paper's evaluation grid (two
// representative mixes, all five schemes) and render Figure 5 and Figure 9
// as ASCII bar charts — the quickest way to *see* the reproduction.
package main

import (
	"context"
	"fmt"
	"log"

	"camps/internal/exp"
	"camps/internal/plot"
	"camps/internal/report"
)

func main() {
	log.SetFlags(0)

	spec := exp.Spec{
		Mixes:   []string{"HM1", "MX1"},
		Schemes: []string{"BASE", "BASE-HIT", "MMD", "CAMPS", "CAMPS-MOD"},
		Instr:   150_000, // reduced budget: this is a demo
	}
	cells, opts, err := spec.Expand(exp.Options{
		Progress: func(cr exp.CellResult) {
			fmt.Printf("  finished %s under %v (IPC %.4f)\n", cr.Mix, cr.Scheme, cr.Results.GeoMeanIPC)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	results, _, err := exp.Run(context.Background(), cells, opts)
	if err != nil {
		log.Fatal(err)
	}

	figs := report.Figures(results)
	fmt.Println()
	fmt.Println(plot.Bars(figs[0], plot.Options{
		Width: 36, UseBaseline: true, Baseline: 1.0,
	}))
	fmt.Println(plot.Bars(figs[4], plot.Options{
		Width: 36, UseBaseline: true, Baseline: 1.0,
	}))
	fmt.Println("Bars to the right of '|' are better than BASE on Figure 5,")
	fmt.Println("and worse (more energy) on Figure 9.")
}
