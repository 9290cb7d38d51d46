// Package report turns a campaign's results into the CAMPS paper's
// Section 5 evaluation: Figures 5 through 9 as tables built from the
// []exp.CellResult that exp.Run returns (averaged over seeds when the
// campaign ran several), per-class summaries, and a self-contained
// Markdown reproduction report with the paper's headline numbers
// alongside the measured ones.
package report

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"camps"
	"camps/internal/exp"
	"camps/internal/obs"
	"camps/internal/stats"
)

// cellOf returns one (mix, scheme) cell of a single seed's results.
type cellOf func(camps.Scheme) camps.Results

// figures specifies the paper's Figures 5–9: each is one row per mix and
// one column per scheme, where value computes a cell from that mix's
// results, plus an AVG row.
var figures = []struct {
	title string
	// schemes lists the plotted schemes in canonical order; those absent
	// from the campaign are dropped.
	schemes []camps.Scheme
	// geo selects a geometric-mean AVG row (speedups) over an arithmetic
	// one (percentages and ratios).
	geo   bool
	value func(cell cellOf, s camps.Scheme) float64
}{
	// Figure 5, "Normalized performance gains of CAMPS with different
	// schemes": per-mix speedup of each scheme's geometric-mean IPC over
	// BASE, averaged as the paper does (geometric mean).
	{
		title:   "Figure 5: Normalized speedup over BASE (higher is better)",
		schemes: camps.Schemes(),
		geo:     true,
		value: func(cell cellOf, s camps.Scheme) float64 {
			return stats.Ratio(cell(s).GeoMeanIPC, cell(camps.BASE).GeoMeanIPC)
		},
	},
	// Figure 6, "Percentage Row Buffer Conflicts Over Different Schemes":
	// row-buffer conflicts as a percentage of demand requests, for the
	// open-page schemes. BASE is excluded exactly as in the paper (it
	// precharges behind every copy, so it has no row-buffer conflicts).
	{
		title:   "Figure 6: Row-buffer conflict rate, % of demand requests (lower is better)",
		schemes: []camps.Scheme{camps.BASEHIT, camps.MMD, camps.CAMPS, camps.CAMPSMOD},
		value: func(cell cellOf, s camps.Scheme) float64 {
			r := cell(s)
			demand := float64(r.VaultStats.BufferHits.Value() + r.VaultStats.BufferMisses.Value())
			return stats.Ratio(float64(r.RowConflicts), demand) * 100
		},
	},
	// Figure 7, "Prefetching Accuracy of Different Schemes": of all
	// prefetches performed, the fraction whose data is actually referenced
	// by the processor, in percent. Reported at row granularity (a
	// prefetched row counts as useful once any of its lines is served from
	// the buffer), the granularity the schemes prefetch at. EXPERIMENTS.md
	// discusses the one divergence this causes (BASE-HIT's trigger
	// guarantees a waiting consumer, so its row accuracy is trivially
	// ~100%).
	{
		title:   "Figure 7: Prefetching accuracy, % of prefetched rows referenced (higher is better)",
		schemes: camps.Schemes(),
		value: func(cell cellOf, s camps.Scheme) float64 {
			return cell(s).PrefetchAccuracy * 100
		},
	},
	// Figure 8, "Reduction in Memory Access Latency": percentage AMAT
	// reduction relative to BASE for the schemes the paper plots.
	{
		title:   "Figure 8: Reduction in average memory access time vs BASE, % (higher is better)",
		schemes: []camps.Scheme{camps.MMD, camps.CAMPSMOD},
		value: func(cell cellOf, s camps.Scheme) float64 {
			base := cell(camps.BASE).AMATps
			return stats.Ratio(base-cell(s).AMATps, base) * 100
		},
	},
	// Figure 9, "Average Energy consumption of HMC": total HMC energy
	// normalized to BASE for the schemes the paper plots.
	{
		title:   "Figure 9: HMC energy normalized to BASE (lower is better)",
		schemes: []camps.Scheme{camps.BASE, camps.MMD, camps.CAMPSMOD},
		value: func(cell cellOf, s camps.Scheme) float64 {
			return stats.Ratio(cell(s).Energy.Total(), cell(camps.BASE).Energy.Total())
		},
	},
}

// Figures returns the paper's Figures 5 through 9, in order, over a grid
// campaign's results. Rows are the mixes in enumeration order, columns
// each figure's schemes in canonical order, restricted to the schemes
// the campaign ran. When the results span several seeds, each table is
// the cell-wise mean of the per-seed tables, summed in ascending seed
// order. Empty results, or a (seed, mix, scheme) cell missing from
// them, panic.
func Figures(results []exp.CellResult) []*stats.Table {
	if len(results) == 0 {
		panic("report: no results")
	}
	type key struct {
		seed   uint64
		mix    string
		scheme camps.Scheme
	}
	cells := make(map[key]camps.Results, len(results))
	var seeds []uint64
	var mixes []string
	var schemes []camps.Scheme
	for _, r := range results {
		cells[key{r.Seed, r.Mix, r.Scheme}] = r.Results
		if !slices.Contains(seeds, r.Seed) {
			seeds = append(seeds, r.Seed)
		}
		if !slices.Contains(mixes, r.Mix) {
			mixes = append(mixes, r.Mix)
		}
		if !slices.Contains(schemes, r.Scheme) {
			schemes = append(schemes, r.Scheme)
		}
	}
	slices.Sort(seeds)

	out := make([]*stats.Table, len(figures))
	for i, f := range figures {
		var cols []camps.Scheme
		for _, s := range f.schemes {
			if slices.Contains(schemes, s) {
				cols = append(cols, s)
			}
		}
		perSeed := make([]*stats.Table, len(seeds))
		for j, seed := range seeds {
			t := &stats.Table{Title: f.title, Columns: schemeNames(cols)}
			for _, mix := range mixes {
				cell := func(s camps.Scheme) camps.Results {
					r, ok := cells[key{seed, mix, s}]
					if !ok {
						panic(fmt.Sprintf("report: missing cell %s/%v/seed=%d", mix, s, seed))
					}
					return r
				}
				row := make([]float64, len(cols))
				for c, s := range cols {
					row[c] = f.value(cell, s)
				}
				t.AddRow(mix, row...)
			}
			appendAvg(t, f.geo)
			perSeed[j] = t
		}
		out[i] = meanTable(perSeed)
	}
	return out
}

// meanTable combines the same figure from several seeds into one
// cell-wise arithmetic mean table. The tables share their shape by
// construction.
func meanTable(tables []*stats.Table) *stats.Table {
	first := tables[0]
	out := &stats.Table{Title: first.Title, Columns: first.Columns}
	if len(tables) > 1 {
		out.Title += fmt.Sprintf(" (mean of %d seeds)", len(tables))
	}
	for r := 0; r < first.Rows(); r++ {
		row := make([]float64, len(first.Columns))
		for c := range first.Columns {
			sum := 0.0
			for _, t := range tables {
				sum += t.Value(r, c)
			}
			row[c] = sum / float64(len(tables))
		}
		out.AddRow(first.RowLabel(r), row...)
	}
	return out
}

// appendAvg adds an AVG row: geometric mean per column when geo is set
// (speedups), arithmetic mean otherwise (percentages/ratios).
func appendAvg(t *stats.Table, geo bool) {
	n := t.Rows()
	if n == 0 {
		return
	}
	avg := make([]float64, len(t.Columns))
	for c := range t.Columns {
		if geo {
			avg[c] = t.ColumnGeoMean(c)
		} else {
			avg[c] = t.ColumnMean(c)
		}
	}
	t.AddRow("AVG", avg...)
}

func schemeNames(ss []camps.Scheme) []string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.String()
	}
	return names
}

// GroupAverages returns the average value of column col of table t within
// each mix family (HM, LM, MX), mirroring how the paper quotes per-class
// gains. Rows labelled AVG are skipped.
func GroupAverages(t *stats.Table, col int) map[string]float64 {
	sums := map[string][]float64{}
	for i := 0; i < t.Rows(); i++ {
		label := t.RowLabel(i)
		if label == "AVG" || len(label) < 2 {
			continue
		}
		grp := label[:2]
		sums[grp] = append(sums[grp], t.Value(i, col))
	}
	out := make(map[string]float64, len(sums))
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out[k] = stats.Mean(sums[k])
	}
	return out
}

// paperHeadline holds the values the paper quotes in prose, used for the
// side-by-side summary. measured reads them off Figures' tables.
var paperHeadline = []struct {
	name     string
	paper    string
	measured func(figs []*stats.Table) string
}{
	{
		name:  "CAMPS-MOD speedup over BASE (avg)",
		paper: "+17.9%",
		measured: func(figs []*stats.Table) string {
			f5 := figs[0]
			return fmt.Sprintf("%+.1f%%", (f5.Value(f5.Rows()-1, len(f5.Columns)-1)-1)*100)
		},
	},
	{
		name:  "CAMPS-MOD speedup over MMD (avg)",
		paper: "+8.7%",
		measured: func(figs []*stats.Table) string {
			f5 := figs[0]
			avg := f5.Rows() - 1
			mmd, mod := f5.Value(avg, 2), f5.Value(avg, len(f5.Columns)-1)
			return fmt.Sprintf("%+.1f%%", (mod/mmd-1)*100)
		},
	},
	{
		name:  "conflict reduction vs MMD (avg)",
		paper: "13.6%",
		measured: func(figs []*stats.Table) string {
			f6 := figs[1]
			avg := f6.Rows() - 1
			mmd, mod := f6.Value(avg, 1), f6.Value(avg, len(f6.Columns)-1)
			return fmt.Sprintf("%.1f%%", (1-mod/mmd)*100)
		},
	},
	{
		name:  "CAMPS-MOD prefetch accuracy (avg)",
		paper: "70.5%",
		measured: func(figs []*stats.Table) string {
			f7 := figs[2]
			return fmt.Sprintf("%.1f%%", f7.Value(f7.Rows()-1, len(f7.Columns)-1))
		},
	},
	{
		name:  "CAMPS-MOD energy vs BASE (avg)",
		paper: "0.915",
		measured: func(figs []*stats.Table) string {
			f9 := figs[4]
			return fmt.Sprintf("%.3f", f9.Value(f9.Rows()-1, len(f9.Columns)-1))
		},
	},
}

// Markdown renders the full report over a grid campaign's results.
func Markdown(results []exp.CellResult, title string) string {
	figs := Figures(results)
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n\n", title)
	sb.WriteString("Reproduction of the CAMPS paper's evaluation (ICPP 2018). ")
	sb.WriteString("Shapes, not absolute values, are the reproduction target; ")
	sb.WriteString("see EXPERIMENTS.md in the repository for methodology.\n\n")

	sb.WriteString("## Headline comparison\n\n")
	sb.WriteString("| metric | paper | measured |\n|---|---|---|\n")
	for _, h := range paperHeadline {
		fmt.Fprintf(&sb, "| %s | %s | %s |\n", h.name, h.paper, h.measured(figs))
	}
	sb.WriteByte('\n')

	for _, fig := range figs {
		sb.WriteString(markdownTable(fig))
		sb.WriteByte('\n')
	}

	sb.WriteString("## Per-class CAMPS-MOD speedup over BASE\n\n")
	f5 := figs[0]
	groups := GroupAverages(f5, len(f5.Columns)-1)
	sb.WriteString("| class | paper | measured |\n|---|---|---|\n")
	paperClass := map[string]string{"HM": "+24.9%", "LM": "+9.4%", "MX": "+19.6%"}
	for _, cls := range []string{"HM", "LM", "MX"} {
		if v, ok := groups[cls]; ok {
			fmt.Fprintf(&sb, "| %s | %s | %+.1f%% |\n", cls, paperClass[cls], (v-1)*100)
		}
	}
	return sb.String()
}

// markdownTable renders one stats.Table as a Markdown table with a heading.
func markdownTable(t *stats.Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s\n\n", t.Title)
	sb.WriteString("| workload |")
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, " %s |", c)
	}
	sb.WriteString("\n|---|")
	for range t.Columns {
		sb.WriteString("---|")
	}
	sb.WriteByte('\n')
	for r := 0; r < t.Rows(); r++ {
		fmt.Fprintf(&sb, "| %s |", t.RowLabel(r))
		for c := range t.Columns {
			fmt.Fprintf(&sb, " %.4f |", t.Value(r, c))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Timeseries renders epoch snapshots from the observability layer as a
// table: one row per snapshot (labelled with its simulation time and
// tag), one column per requested metric. Metric names resolve against
// counters first, then gauges, then histogram means; absent names render
// as 0. With delta set, counter columns show per-epoch increments
// instead of cumulative totals — the per-epoch breakdown view used to
// compare scheme behaviour over time.
func Timeseries(snaps []obs.Snapshot, metrics []string, delta bool) *stats.Table {
	t := &stats.Table{
		Title:   "Epoch time series (per-epoch deltas for counters)",
		Columns: metrics,
	}
	if !delta {
		t.Title = "Epoch time series (cumulative)"
	}
	var prev obs.Snapshot
	for i, s := range snaps {
		row := make([]float64, len(metrics))
		for c, name := range metrics {
			switch {
			case hasCounter(s, name):
				v := s.Counters[name]
				if delta && i > 0 {
					v -= prev.Counters[name]
				}
				row[c] = float64(v)
			case hasGauge(s, name):
				row[c] = s.Gauges[name]
			default:
				if h, ok := s.Histograms[name]; ok {
					row[c] = h.Mean
				}
			}
		}
		label := fmt.Sprintf("%8.1fus %s", float64(s.AtPs)/1e6, s.Tag)
		t.AddRow(label, row...)
		prev = s
	}
	return t
}

func hasCounter(s obs.Snapshot, name string) bool {
	_, ok := s.Counters[name]
	return ok
}

func hasGauge(s obs.Snapshot, name string) bool {
	_, ok := s.Gauges[name]
	return ok
}

// Summary renders a compact one-paragraph textual summary of a grid
// campaign's results, suitable for CLI output.
func Summary(results []exp.CellResult) string {
	f5 := Figures(results)[0]
	avg := f5.Rows() - 1
	mod := f5.Value(avg, len(f5.Columns)-1)
	base := f5.Value(avg, 0)
	var mmd float64
	for c, name := range f5.Columns {
		if name == camps.MMD.String() {
			mmd = f5.Value(avg, c)
		}
	}
	return fmt.Sprintf(
		"CAMPS-MOD improves average performance by %.1f%% over BASE and %.1f%% over MMD across %d workloads.",
		(mod/base-1)*100, (mod/mmd-1)*100, f5.Rows()-1)
}

// Attribution renders an attribution summary as an aligned text block
// for CLI output: the per-cause latency breakdown (each cause's total,
// share of end-to-end latency, and mean per request), the prefetch
// efficacy ledger, and the per-vault conflict heatmap. Returns "" for a
// nil summary — callers print it unconditionally.
func Attribution(sum *obs.AttributionSummary) string {
	if sum == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "latency attribution (%d spans retired, %d started):\n",
		sum.SpansRetired, sum.SpansStarted)
	fmt.Fprintf(&sb, "  %-15s %16s %8s %12s\n", "cause", "total ps", "share", "mean ps/req")
	for _, cb := range sum.Causes {
		if cb.TotalPs == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %-15s %16d %7.1f%% %12.0f\n",
			cb.Cause, cb.TotalPs, cb.Share*100, cb.MeanPs)
	}
	fmt.Fprintf(&sb, "  %-15s %16d %7.1f%%\n", "end-to-end", sum.E2ETotalPs, 100.0)
	if lg := sum.Ledger; lg != nil && lg.Classified() > 0 {
		total := float64(lg.Classified())
		fmt.Fprintf(&sb, "prefetch efficacy (%s, %d classified):\n", lg.Scheme, lg.Classified())
		for _, row := range []struct {
			name string
			n    uint64
		}{
			{"useful (timely)", lg.UsefulTimely},
			{"useful (late)", lg.UsefulLate},
			{"evicted unused", lg.EvictedUnused},
			{"conflict victim", lg.ConflictVictim},
		} {
			fmt.Fprintf(&sb, "  %-15s %16d %7.1f%%\n", row.name, row.n, float64(row.n)/total*100)
		}
	}
	if len(sum.VaultConflictPs) > 0 {
		var peak uint64
		for _, v := range sum.VaultConflictPs {
			if v > peak {
				peak = v
			}
		}
		if peak > 0 {
			sb.WriteString("bank-conflict heatmap (ps lost per vault):\n")
			for v, ps := range sum.VaultConflictPs {
				bar := 0
				if peak > 0 {
					bar = int(ps * 40 / peak)
				}
				fmt.Fprintf(&sb, "  v%-3d %14d %s\n", v, ps, strings.Repeat("#", bar))
			}
		}
	}
	return sb.String()
}

// FaultReport renders one run's injected-fault counters as an aligned
// text block for CLI output, or "" for a fault-free run — callers print
// it unconditionally.
func FaultReport(c *camps.FaultCounts) string {
	if c == nil || c.Total() == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("injected faults:\n")
	for _, row := range []struct {
		name string
		n    uint64
	}{
		{"link CRC errors", c.LinkCRCErrors},
		{"link retries", c.LinkRetries},
		{"vault stalls", c.VaultStalls},
		{"poisoned rows", c.PoisonedRows},
		{"bank blackouts", c.BankBlackouts},
	} {
		if row.n > 0 {
			fmt.Fprintf(&sb, "  %-20s %12d\n", row.name, row.n)
		}
	}
	return sb.String()
}
