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
	benchmarkGrid(b, "MX1")
}

// BenchmarkGridTwoMixes runs two rows of the campaign grid on two workers:
// with two warm keys, a worker that would wait on the other's warmup has
// the other row's cells to start instead, so the benchmark sees the cell
// picking that BenchmarkGridMix, with a single key, cannot.
func BenchmarkGridTwoMixes(b *testing.B) {
	benchmarkGrid(b, "MX1", "HM1")
}

func benchmarkGrid(b *testing.B, mixIDs ...string) {
	var mixes []workload.Mix
	for _, id := range mixIDs {
		mix, err := workload.MixByID(id)
		if err != nil {
			b.Fatal(err)
		}
		mixes = append(mixes, mix)
	}
	cells := Grid(mixes, camps.Schemes(), nil)
	opts := Options{MeasureInstr: 10_000, Parallelism: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(context.Background(), cells, opts); err != nil {
			b.Fatal(err)
		}
	}
}
