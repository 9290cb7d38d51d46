package exp

import (
	"context"
	"testing"

	"camps"
	"camps/internal/workload"
)

// BenchmarkGridMix runs one mix under the paper's five schemes through Run
// at Table I and 10k instructions per core, the shape of one row of the
// campaign grid: the cells share one functional warmup, so the warm-state
// memo's build, clones and adoption are all on the measured path.
func BenchmarkGridMix(b *testing.B) {
	mix, err := workload.MixByID("MX1")
	if err != nil {
		b.Fatal(err)
	}
	cells := Grid([]workload.Mix{mix}, camps.Schemes(), nil)
	opts := Options{MeasureInstr: 10_000, Parallelism: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(context.Background(), cells, opts); err != nil {
			b.Fatal(err)
		}
	}
}
