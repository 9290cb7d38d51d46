package trace_test

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"camps/internal/trace"
	"camps/internal/workload"
)

// profileMeans returns every distinct GapMean of the workload profiles,
// plus 2.5 from examples/custom_workload, sorted.
func profileMeans(t testing.TB) []float64 {
	seen := map[float64]bool{2.5: true}
	for _, name := range append(workload.Names(), workload.ExtensionNames()...) {
		b, err := workload.GetAny(name)
		if err != nil {
			t.Fatal(err)
		}
		seen[b.Profile.GapMean] = true
	}
	means := make([]float64, 0, len(seen))
	for m := range seen {
		means = append(means, m)
	}
	sort.Float64s(means)
	return means
}

// The table must return the formula's gap for every draw. The formula is
// a step function of the draw, so the draws that can disagree sit at the
// boundaries; each is checked 4096 draws either side, and random draws
// and both ends of the range cover the rest.
func TestGapTableMatchesFormula(t *testing.T) {
	const randomDraws = 10_000_000 // per mean
	const near = 4096
	for _, mean := range profileMeans(t) {
		mean := mean
		t.Run(fmt.Sprint(mean), func(t *testing.T) {
			t.Parallel()
			lookup, first := trace.GapTable(mean)
			if lookup == nil {
				t.Fatal("no gap table")
			}
			if top := trace.ExpGap(mean, trace.MaxDraw); len(first) != int(top) {
				t.Fatalf("%d boundaries, want one per gap up to %d", len(first), top)
			}
			check := func(k uint64) {
				if got, want := lookup(k), trace.ExpGap(mean, k); got != want {
					t.Fatalf("draw %d: table gap %d, formula %d", k, got, want)
				}
			}
			check(0)
			check(trace.MaxDraw)
			for _, b := range first {
				for k := b - min(b, near); k <= min(b+near, trace.MaxDraw); k++ {
					check(k)
				}
			}
			rng := trace.NewRNG(math.Float64bits(mean))
			for i := 0; i < randomDraws; i++ {
				check(rng.Uint64() >> 11)
			}
		})
	}
}

// Means without a table keep the Log1p path: means too large for the
// table, infinite and NaN ones, and the non-positive ones that draw
// nothing.
func TestGapTableFallbackMeans(t *testing.T) {
	for _, mean := range []float64{1000, 64.5, math.Inf(1), math.NaN(), 0, -1} {
		if lookup, _ := trace.GapTable(mean); lookup != nil {
			t.Errorf("mean %g: got a gap table", mean)
		}
	}
	if lookup, _ := trace.GapTable(64); lookup == nil {
		t.Error("mean 64 (gaps up to 1024): no gap table")
	}
}

// Campaign cells build generators on several goroutines at once; all of
// them must get the one table of their mean, complete.
func TestGapTableSharedAcrossGoroutines(t *testing.T) {
	const mean = 7.25 // no profile's, so the first use below builds it
	firsts := make([]*uint64, 8)
	var wg sync.WaitGroup
	for i := range firsts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lookup, first := trace.GapTable(mean)
			if got, want := lookup(first[3]), uint32(4); got != want {
				t.Errorf("goroutine %d: gap at the fourth boundary = %d, want %d", i, got, want)
			}
			firsts[i] = &first[0]
		}(i)
	}
	wg.Wait()
	for i, p := range firsts {
		if p != firsts[0] {
			t.Fatalf("goroutine %d got its own table", i)
		}
	}
}

var benchRecord trace.Record

// benchProfile is a workload profile named by its mix and benchmark.
type benchProfile struct {
	name string
	p    trace.Profile
}

// benchProfiles are the first benchmark of LM2 (the low-intensity mix,
// large gaps) and of HM1 (the memory-intensive one, small gaps).
func benchProfiles(b *testing.B) []benchProfile {
	var out []benchProfile
	for _, id := range []string{"LM2", "HM1"} {
		m, err := workload.MixByID(id)
		if err != nil {
			b.Fatal(err)
		}
		bm, err := workload.GetAny(m.Benchmarks[0])
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, benchProfile{id + "-" + bm.Profile.Name, bm.Profile})
	}
	return out
}

// BenchmarkGeneratorNext is one synthetic record: the gap draw and the
// address and direction draws.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, bp := range benchProfiles(b) {
		bp := bp
		b.Run(bp.name, func(b *testing.B) {
			g, err := trace.NewGenerator(bp.p, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRecord, _ = g.Next()
			}
		})
	}
}

// BenchmarkGeneratorNextAccess is one record of the functional warmup,
// which discards the gap's draw.
func BenchmarkGeneratorNextAccess(b *testing.B) {
	for _, bp := range benchProfiles(b) {
		bp := bp
		b.Run(bp.name, func(b *testing.B) {
			g, err := trace.NewGenerator(bp.p, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRecord.Addr, benchRecord.Write = g.NextAccess()
			}
		})
	}
}
