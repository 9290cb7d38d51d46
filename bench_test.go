// Benchmarks that regenerate every table and figure of the CAMPS paper's
// evaluation, plus the ablations DESIGN.md calls out. Each benchmark
// iteration is one full system simulation at a reduced (but
// shape-preserving) instruction budget; the figures' values are attached
// via b.ReportMetric, so `go test -bench` output doubles as the numeric
// series behind each figure. cmd/campbench prints the same series as
// aligned tables at full budget.
//
//	go test -bench=Figure5 -benchtime=1x
//	go test -bench=Ablation -benchtime=1x
package camps_test

import (
	"context"
	"fmt"
	"testing"

	"camps"
	"camps/internal/sim"
)

// benchInstr is the per-core measured budget for benchmark runs: large
// enough for stable scheme ordering, small enough to keep the full suite
// in minutes.
const benchInstr = 120_000

func benchRun(b *testing.B, sys camps.SystemConfig, mixID string, s camps.Scheme) camps.Results {
	b.Helper()
	mix, err := camps.MixByID(mixID)
	if err != nil {
		b.Fatal(err)
	}
	res, err := camps.RunContext(context.Background(), camps.RunConfig{
		System:       sys,
		Scheme:       s,
		Mix:          mix,
		WarmupRefs:   20_000,
		MeasureInstr: benchInstr,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1 exercises the Table I configuration end to end: one run
// of the default system, reporting the simulated-vs-wall time ratio.
func BenchmarkTable1DefaultSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, camps.DefaultSystem(), "MX1", camps.CAMPSMOD)
		b.ReportMetric(float64(res.ElapsedSim)/1e6, "sim_us/op")
		b.ReportMetric(res.GeoMeanIPC, "ipc")
	}
}

// BenchmarkTable2 regenerates the Table II workload set: every mix under
// the paper's proposal, reporting per-mix MPKI (the classification basis).
func BenchmarkTable2Workloads(b *testing.B) {
	for _, mix := range camps.Mixes() {
		mix := mix
		b.Run(mix.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := benchRun(b, camps.DefaultSystem(), mix.ID, camps.CAMPSMOD)
				mean := 0.0
				for _, v := range res.MPKI {
					mean += v / float64(len(res.MPKI))
				}
				b.ReportMetric(mean, "mpki")
				b.ReportMetric(res.GeoMeanIPC, "ipc")
			}
		})
	}
}

// BenchmarkFigure5 regenerates the normalized-speedup figure: every mix
// under every scheme; the speedup column is IPC relative to the same mix
// under BASE (recomputed per iteration so the metric is self-contained).
func BenchmarkFigure5Speedup(b *testing.B) {
	for _, mix := range camps.Mixes() {
		for _, s := range camps.Schemes() {
			mix, s := mix, s
			b.Run(fmt.Sprintf("%s/%v", mix.ID, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					base := benchRun(b, camps.DefaultSystem(), mix.ID, camps.BASE)
					res := benchRun(b, camps.DefaultSystem(), mix.ID, s)
					b.ReportMetric(res.GeoMeanIPC/base.GeoMeanIPC, "speedup")
					b.ReportMetric(res.GeoMeanIPC, "ipc")
				}
			})
		}
	}
}

// BenchmarkFigure6 regenerates the row-buffer-conflict figure for the
// open-page schemes (BASE excluded, as in the paper).
func BenchmarkFigure6Conflicts(b *testing.B) {
	schemes := []camps.Scheme{camps.BASEHIT, camps.MMD, camps.CAMPS, camps.CAMPSMOD}
	for _, mix := range camps.Mixes() {
		for _, s := range schemes {
			mix, s := mix, s
			b.Run(fmt.Sprintf("%s/%v", mix.ID, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := benchRun(b, camps.DefaultSystem(), mix.ID, s)
					demand := res.VaultStats.BufferHits.Value() + res.VaultStats.BufferMisses.Value()
					b.ReportMetric(100*float64(res.RowConflicts)/float64(demand), "conflict_pct")
				}
			})
		}
	}
}

// BenchmarkFigure7 regenerates the prefetching-accuracy figure.
func BenchmarkFigure7Accuracy(b *testing.B) {
	for _, mix := range camps.Mixes() {
		for _, s := range camps.Schemes() {
			mix, s := mix, s
			b.Run(fmt.Sprintf("%s/%v", mix.ID, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := benchRun(b, camps.DefaultSystem(), mix.ID, s)
					b.ReportMetric(res.PrefetchAccuracy*100, "row_acc_pct")
					b.ReportMetric(res.LineAccuracy*100, "line_acc_pct")
				}
			})
		}
	}
}

// BenchmarkFigure8 regenerates the AMAT-reduction figure (MMD and
// CAMPS-MOD vs BASE, as plotted in the paper).
func BenchmarkFigure8AMAT(b *testing.B) {
	for _, mix := range camps.Mixes() {
		for _, s := range []camps.Scheme{camps.MMD, camps.CAMPSMOD} {
			mix, s := mix, s
			b.Run(fmt.Sprintf("%s/%v", mix.ID, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					base := benchRun(b, camps.DefaultSystem(), mix.ID, camps.BASE)
					res := benchRun(b, camps.DefaultSystem(), mix.ID, s)
					b.ReportMetric(100*(base.AMATps-res.AMATps)/base.AMATps, "amat_reduction_pct")
					b.ReportMetric(res.AMATps/1000, "amat_ns")
				}
			})
		}
	}
}

// BenchmarkFigure9 regenerates the normalized-energy figure (BASE, MMD,
// CAMPS-MOD, as plotted in the paper).
func BenchmarkFigure9Energy(b *testing.B) {
	for _, mix := range camps.Mixes() {
		for _, s := range []camps.Scheme{camps.BASE, camps.MMD, camps.CAMPSMOD} {
			mix, s := mix, s
			b.Run(fmt.Sprintf("%s/%v", mix.ID, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					base := benchRun(b, camps.DefaultSystem(), mix.ID, camps.BASE)
					res := benchRun(b, camps.DefaultSystem(), mix.ID, s)
					b.ReportMetric(res.Energy.Total()/base.Energy.Total(), "energy_vs_base")
				}
			})
		}
	}
}

// BenchmarkAblation covers the design-choice sweeps DESIGN.md lists beyond
// the paper's own figures.
func BenchmarkAblation(b *testing.B) {
	const mixID = "HM2"

	b.Run("CTEntries", func(b *testing.B) {
		for _, n := range []int{8, 16, 32, 64} {
			n := n
			b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys := camps.DefaultSystem()
					sys.CAMPS.CTEntries = n
					res := benchRun(b, sys, mixID, camps.CAMPSMOD)
					b.ReportMetric(res.GeoMeanIPC, "ipc")
					b.ReportMetric(res.PrefetchAccuracy*100, "row_acc_pct")
				}
			})
		}
	})

	b.Run("UtilThreshold", func(b *testing.B) {
		for _, th := range []int{1, 2, 4, 8} {
			th := th
			b.Run(fmt.Sprintf("%d", th), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys := camps.DefaultSystem()
					sys.CAMPS.UtilThreshold = th
					res := benchRun(b, sys, mixID, camps.CAMPSMOD)
					b.ReportMetric(res.GeoMeanIPC, "ipc")
					b.ReportMetric(float64(res.PrefetchesIssued), "fetches")
				}
			})
		}
	})

	b.Run("BufferEntries", func(b *testing.B) {
		for _, entries := range []int64{8, 16, 32} {
			entries := entries
			b.Run(fmt.Sprintf("%d", entries), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys := camps.DefaultSystem()
					sys.PFBuffer.SizeBytes = entries * int64(sys.PFBuffer.LineBytes)
					res := benchRun(b, sys, mixID, camps.CAMPSMOD)
					b.ReportMetric(res.GeoMeanIPC, "ipc")
					b.ReportMetric(res.BufferHitRate*100, "bufhit_pct")
				}
			})
		}
	})

	// Replacement policy under buffer pressure: the CAMPS engine with LRU
	// (CAMPS) against utilization+recency (CAMPS-MOD) at half the paper's
	// buffer size — this is the CAMPS vs CAMPS-MOD ablation.
	b.Run("ReplacementPolicy", func(b *testing.B) {
		for _, s := range []camps.Scheme{camps.CAMPS, camps.CAMPSMOD} {
			s := s
			b.Run(s.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys := camps.DefaultSystem()
					sys.PFBuffer.SizeBytes = 8 * int64(sys.PFBuffer.LineBytes)
					res := benchRun(b, sys, mixID, s)
					b.ReportMetric(res.GeoMeanIPC, "ipc")
					b.ReportMetric(res.PrefetchAccuracy*100, "row_acc_pct")
				}
			})
		}
	})

	// Eviction writeback policy: the paper's write-everything-back buffer
	// against a dirty-tracking buffer.
	b.Run("WritebackPolicy", func(b *testing.B) {
		for _, dirtyOnly := range []bool{false, true} {
			dirtyOnly := dirtyOnly
			name := "all"
			if dirtyOnly {
				name = "dirty-only"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys := camps.DefaultSystem()
					sys.PFBuffer.WritebackDirtyOnly = dirtyOnly
					res := benchRun(b, sys, mixID, camps.BASE)
					b.ReportMetric(res.GeoMeanIPC, "ipc")
					b.ReportMetric(res.Energy.Total()/1e9, "energy_mJ")
				}
			})
		}
	})
}

// BenchmarkAblationExtra sweeps the infrastructure options the paper holds
// fixed: page policy, scheduler and address interleave, plus the
// no-prefetch reference point.
func BenchmarkAblationExtra(b *testing.B) {
	const mixID = "HM2"

	b.Run("NoPrefetchReference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			none := benchRun(b, camps.DefaultSystem(), mixID, camps.NONE)
			mod := benchRun(b, camps.DefaultSystem(), mixID, camps.CAMPSMOD)
			b.ReportMetric(mod.GeoMeanIPC/none.GeoMeanIPC, "speedup_vs_none")
		}
	})

	b.Run("PagePolicy", func(b *testing.B) {
		for _, pp := range []struct {
			name string
			p    int
		}{{"open", 0}, {"closed", 1}} {
			pp := pp
			b.Run(pp.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys := camps.DefaultSystem()
					sys.HMC.PagePolicy = camps.PagePolicy(pp.p)
					res := benchRun(b, sys, mixID, camps.CAMPSMOD)
					b.ReportMetric(res.GeoMeanIPC, "ipc")
				}
			})
		}
	})

	b.Run("Scheduler", func(b *testing.B) {
		for _, sp := range []struct {
			name string
			p    int
		}{{"frfcfs", 0}, {"fcfs", 1}} {
			sp := sp
			b.Run(sp.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys := camps.DefaultSystem()
					sys.HMC.Scheduler = camps.SchedPolicy(sp.p)
					res := benchRun(b, sys, mixID, camps.CAMPSMOD)
					b.ReportMetric(res.GeoMeanIPC, "ipc")
				}
			})
		}
	})

	b.Run("Interleave", func(b *testing.B) {
		for _, il := range []struct {
			name string
			p    int
		}{{"RoRaBaVaCo", 0}, {"RoRaVaBaCo", 1}, {"VaultXOR", 2}} {
			il := il
			b.Run(il.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys := camps.DefaultSystem()
					sys.HMC.Interleave = camps.AddressInterleave(il.p)
					res := benchRun(b, sys, mixID, camps.CAMPSMOD)
					b.ReportMetric(res.GeoMeanIPC, "ipc")
					demand := res.VaultStats.BufferHits.Value() + res.VaultStats.BufferMisses.Value()
					b.ReportMetric(100*float64(res.RowConflicts)/float64(demand), "conflict_pct")
				}
			})
		}
	})
}

// BenchmarkAblationLinkPower measures the link power-management extension:
// energy saved and latency cost of letting idle link directions sleep.
func BenchmarkAblationLinkPower(b *testing.B) {
	for _, mode := range []struct {
		name  string
		sleep int64 // ns; 0 = disabled
	}{{"always-on", 0}, {"sleep-1us", 1000}, {"sleep-10ns", 10}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := camps.DefaultSystem()
				sys.Links.SleepAfter = sim.Time(mode.sleep) * sim.Nanosecond
				sys.Links.WakeLatency = 25 * sim.Nanosecond
				res := benchRun(b, sys, "LM2", camps.CAMPSMOD)
				b.ReportMetric(res.GeoMeanIPC, "ipc")
				b.ReportMetric(res.Energy.Total()/1e9, "energy_mJ")
				b.ReportMetric(res.AMATps/1000, "amat_ns")
			}
		})
	}
}

// BenchmarkAblationTSVBandwidth tests the paper's core premise — that the
// TSVs provide effectively unlimited internal bandwidth for whole-row
// prefetching. Narrowing the modeled per-vault data path shows where the
// premise breaks and row-granularity prefetching stops paying.
func BenchmarkAblationTSVBandwidth(b *testing.B) {
	for _, mode := range []struct {
		name string
		gbps int64
	}{{"unlimited", 0}, {"40GBps", 40}, {"10GBps", 10}, {"2GBps", 2}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := camps.DefaultSystem()
				sys.HMC.TSVGBps = mode.gbps
				res := benchRun(b, sys, "HM1", camps.CAMPSMOD)
				b.ReportMetric(res.GeoMeanIPC, "ipc")
				b.ReportMetric(res.AMATps/1000, "amat_ns")
				b.ReportMetric(res.BufferHitRate*100, "bufhit_pct")
			}
		})
	}
}

// BenchmarkCoreSideVsMemorySide runs the comparison the paper's §2.4
// motivates: a classic core-side stride prefetcher (with no memory-side
// scheme), the paper's memory-side CAMPS-MOD (with no core-side engine),
// and both together, against the no-prefetch reference.
func BenchmarkCoreSideVsMemorySide(b *testing.B) {
	for _, mode := range []struct {
		name   string
		scheme camps.Scheme
		degree int
	}{
		{"none", camps.NONE, 0},
		{"core-side-stride", camps.NONE, 2},
		{"memory-side-campsmod", camps.CAMPSMOD, 0},
		{"both", camps.CAMPSMOD, 2},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := camps.DefaultSystem()
				sys.Processor.L2PrefetchDegree = mode.degree
				res := benchRun(b, sys, "HM1", mode.scheme)
				b.ReportMetric(res.GeoMeanIPC, "ipc")
				b.ReportMetric(res.AMATps/1000, "amat_ns")
			}
		})
	}
}

// BenchmarkSchemeCost times the measured region of MX1 at 200k
// instructions per core under each registered scheme, so the schemes'
// simulation costs compare directly (the hybrid engine's target is within
// 10% of CAMPS-MOD's). The functional warmup is scheme-independent, so it
// runs once, outside the timer, and each iteration starts from a clone.
func BenchmarkSchemeCost(b *testing.B) {
	mix, err := camps.MixByID("MX1")
	if err != nil {
		b.Fatal(err)
	}
	rc := camps.RunConfig{Mix: mix, MeasureInstr: 200_000}
	ws, err := camps.Warm(context.Background(), rc)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range camps.AllSchemes() {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				run := rc
				run.Scheme = s
				run.Warm = ws.Clone()
				b.StartTimer()
				res, err := camps.RunContext(context.Background(), run)
				if err != nil {
					b.Fatal(err)
				}
				events += res.EventsFired
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
