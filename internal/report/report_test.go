package report

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"camps"
	"camps/internal/exp"
	"camps/internal/obs"
	"camps/internal/stats"
	"camps/internal/workload"
)

// runGrid runs mixes × schemes × seeds through exp.Run at test scale.
func runGrid(t *testing.T, mixIDs []string, schemes []camps.Scheme, seeds []uint64,
	warmup, instr uint64) []exp.CellResult {
	t.Helper()
	var mixes []workload.Mix
	for _, id := range mixIDs {
		m, err := workload.MixByID(id)
		if err != nil {
			t.Fatal(err)
		}
		mixes = append(mixes, m)
	}
	results, _, err := exp.Run(context.Background(), exp.Grid(mixes, schemes, seeds), exp.Options{
		WarmupRefs:   warmup,
		MeasureInstr: instr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

var smallGrid struct {
	once    sync.Once
	results []exp.CellResult
}

// smallResults is the package's shared fixture: HM1 and LM1 under all
// five schemes, seed 1, run once and read by every test that needs a
// real grid.
func smallResults(t *testing.T) []exp.CellResult {
	t.Helper()
	smallGrid.once.Do(func() {
		smallGrid.results = runGrid(t, []string{"HM1", "LM1"}, camps.Schemes(), nil, 5_000, 50_000)
	})
	if smallGrid.results == nil {
		t.Fatal("shared grid fixture failed in an earlier test")
	}
	return smallGrid.results
}

func TestMarkdownReport(t *testing.T) {
	md := Markdown(smallResults(t), "CAMPS reproduction")
	for _, want := range []string{
		"# CAMPS reproduction",
		"## Headline comparison",
		"| metric | paper | measured |",
		"+17.9%", // paper headline present
		"Figure 5",
		"Figure 9",
		"## Per-class CAMPS-MOD speedup over BASE",
		"| HM |",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// Every figure table carries the AVG row.
	if strings.Count(md, "| AVG |") < 5 {
		t.Fatalf("AVG rows missing:\n%s", md)
	}
}

func TestMarkdownTable(t *testing.T) {
	tb := &stats.Table{Title: "Figure X", Columns: []string{"A", "B"}}
	tb.AddRow("r1", 1, 2)
	md := markdownTable(tb)
	for _, want := range []string{"## Figure X", "| workload | A | B |", "| r1 | 1.0000 | 2.0000 |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("missing %q in:\n%s", want, md)
		}
	}
}

func TestSummary(t *testing.T) {
	s := Summary(smallResults(t))
	if !strings.Contains(s, "CAMPS-MOD improves average performance") {
		t.Fatalf("summary = %q", s)
	}
	if !strings.Contains(s, "2 workloads") {
		t.Fatalf("workload count missing: %q", s)
	}
}

// synthetic returns one HM1 cell per scheme for seed, all at IPC 1
// except CAMPS-MOD at modIPC.
func synthetic(seed uint64, modIPC float64) []exp.CellResult {
	var out []exp.CellResult
	for _, s := range camps.Schemes() {
		ipc := 1.0
		if s == camps.CAMPSMOD {
			ipc = modIPC
		}
		out = append(out, exp.CellResult{Mix: "HM1", Scheme: s, Seed: seed,
			Results: camps.Results{GeoMeanIPC: ipc}})
	}
	return out
}

func TestSummaryQuotesSeedMeans(t *testing.T) {
	// CAMPS-MOD is 10% faster than BASE in seed 1 and 30% in seed 2: every
	// quoted number must be the 20% of the seed mean, not seed 1's 10%.
	seed1 := synthetic(1, 1.1)
	both := append(synthetic(2, 1.3), seed1...)

	if s := Summary(seed1); !strings.Contains(s, "by 10.0% over BASE") {
		t.Fatalf("seed-1 summary = %q", s)
	}
	want := "CAMPS-MOD improves average performance by 20.0% over BASE and 20.0% over MMD across 1 workloads."
	if s := Summary(both); s != want {
		t.Fatalf("2-seed summary = %q\nwant             %q", s, want)
	}
	md := Markdown(both, "two seeds")
	for _, want := range []string{
		"| CAMPS-MOD speedup over BASE (avg) | +17.9% | +20.0% |",
		"| CAMPS-MOD speedup over MMD (avg) | +8.7% | +20.0% |",
		"| HM | +24.9% | +20.0% |",
		"(mean of 2 seeds)",
		markdownTable(Figures(both)[0]),
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("2-seed report missing %q:\n%s", want, md)
		}
	}
}

func TestFiguresKeepEnumerationOrder(t *testing.T) {
	results := smallResults(t)
	if len(results) != 10 {
		t.Fatalf("%d results, want 10", len(results))
	}
	for _, cr := range results {
		if cr.Results.GeoMeanIPC <= 0 {
			t.Fatalf("cell %s/%v has no IPC", cr.Mix, cr.Scheme)
		}
	}
	rows := func(tb *stats.Table) []string {
		var out []string
		for i := 0; i < tb.Rows(); i++ {
			out = append(out, tb.RowLabel(i))
		}
		return out
	}
	f5 := Figures(results)[0]
	if got := fmt.Sprint(rows(f5)); got != "[HM1 LM1 AVG]" {
		t.Fatalf("figure 5 rows = %s", got)
	}
	if got := fmt.Sprint(f5.Columns); got != "[BASE BASE-HIT MMD CAMPS CAMPS-MOD]" {
		t.Fatalf("figure 5 columns = %s", got)
	}
	// Rows follow the results' mix order; columns stay canonical whatever
	// order the schemes arrive in.
	reversed := make([]exp.CellResult, len(results))
	for i, cr := range results {
		reversed[len(results)-1-i] = cr
	}
	r5 := Figures(reversed)[0]
	if got := fmt.Sprint(rows(r5)); got != "[LM1 HM1 AVG]" {
		t.Fatalf("reversed figure 5 rows = %s", got)
	}
	if fmt.Sprint(r5.Columns) != fmt.Sprint(f5.Columns) {
		t.Fatalf("reversed figure 5 columns = %v", r5.Columns)
	}
}

func TestFiguresMissingCellPanics(t *testing.T) {
	results := smallResults(t)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "missing cell LM1/CAMPS-MOD/seed=1") {
			t.Fatalf("recovered %v, want a missing-cell panic", r)
		}
	}()
	Figures(results[:len(results)-1])
}

func TestFigureTablesShape(t *testing.T) {
	figs := Figures(smallResults(t))
	if len(figs) != 5 {
		t.Fatalf("Figures returned %d tables", len(figs))
	}
	wantCols := []int{5, 4, 5, 2, 3}
	for i, f := range figs {
		if len(f.Columns) != wantCols[i] {
			t.Errorf("figure %d has %d columns, want %d", i+5, len(f.Columns), wantCols[i])
		}
		// 2 mixes + AVG row.
		if f.Rows() != 3 {
			t.Errorf("figure %d has %d rows, want 3", i+5, f.Rows())
		}
		if f.RowLabel(f.Rows()-1) != "AVG" {
			t.Errorf("figure %d last row = %q, want AVG", i+5, f.RowLabel(f.Rows()-1))
		}
		if !strings.HasPrefix(f.Title, fmt.Sprintf("Figure %d:", i+5)) || strings.Contains(f.Title, "mean of") {
			t.Errorf("figure %d title = %q", i+5, f.Title)
		}
	}
}

func TestFigure5BaseColumnIsUnity(t *testing.T) {
	f5 := Figures(smallResults(t))[0]
	for i := 0; i < f5.Rows()-1; i++ { // skip AVG
		if v := f5.Value(i, 0); v != 1.0 {
			t.Fatalf("BASE column row %d = %g, want 1.0", i, v)
		}
	}
}

func TestFigure9BaseColumnIsUnity(t *testing.T) {
	f9 := Figures(smallResults(t))[4]
	for i := 0; i < f9.Rows()-1; i++ {
		if v := f9.Value(i, 0); v != 1.0 {
			t.Fatalf("BASE energy row %d = %g, want 1.0", i, v)
		}
	}
}

func TestFigure6ExcludesBase(t *testing.T) {
	for _, col := range Figures(smallResults(t))[1].Columns {
		if col == "BASE" {
			t.Fatal("Figure 6 must exclude BASE, as in the paper")
		}
	}
}

func TestHeadlineOrderingAtTestScale(t *testing.T) {
	// Run the high-signal mix at a budget where the paper's ordering is
	// stable: CAMPS-MOD above BASE-HIT and MMD on speedup.
	figs := Figures(runGrid(t, []string{"HM1"}, camps.Schemes(), nil, 5_000, 150_000))
	f5 := figs[0]
	avg := f5.Rows() - 1
	baseHit, mmd, mod := f5.Value(avg, 1), f5.Value(avg, 2), f5.Value(avg, 4)
	if mod <= baseHit || mod <= mmd {
		t.Fatalf("CAMPS-MOD avg speedup %g not above BASE-HIT %g and MMD %g", mod, baseHit, mmd)
	}
	// Figure 7 AVG: CAMPS accuracy above BASE accuracy.
	f7 := figs[2]
	if f7.Value(avg, 3) <= f7.Value(avg, 0) {
		t.Fatalf("CAMPS accuracy %g not above BASE %g", f7.Value(avg, 3), f7.Value(avg, 0))
	}
	// Figure 9 AVG: CAMPS-MOD uses less energy than BASE.
	f9 := figs[4]
	if f9.Value(avg, 2) >= 1.0 {
		t.Fatalf("CAMPS-MOD normalized energy %g not below BASE", f9.Value(avg, 2))
	}
}

func TestSchemeSubsetGrid(t *testing.T) {
	figs := Figures(runGrid(t, []string{"LM4"}, []camps.Scheme{camps.BASE, camps.CAMPSMOD}, nil, 2_000, 30_000))
	if f5 := figs[0]; len(f5.Columns) != 2 {
		t.Fatalf("subset grid figure 5 columns = %v", f5.Columns)
	}
	// Figure 8 needs MMD/CAMPS-MOD; with only CAMPS-MOD present it still
	// renders a 1-column table.
	if f8 := figs[3]; len(f8.Columns) != 1 || f8.Columns[0] != "CAMPS-MOD" {
		t.Fatalf("subset grid figure 8 columns = %v", f8.Columns)
	}
}

// TestFiguresAverageSeeds is the multi-seed differential test: the
// figures of one campaign over seeds 1 and 2 must equal, byte for byte in
// CSV, the cell-wise mean of the figures of two single-seed campaigns.
func TestFiguresAverageSeeds(t *testing.T) {
	grid := func(seeds ...uint64) []*stats.Table {
		return Figures(runGrid(t, []string{"LM1"}, camps.Schemes(), seeds, 2_000, 20_000))
	}
	both, one, two := grid(2, 1), grid(1), grid(2)
	for i := range both {
		a, b := one[i], two[i]
		if strings.Contains(a.Title, "mean of") {
			t.Errorf("single-seed title %q carries a seed suffix", a.Title)
		}
		if want := a.Title + " (mean of 2 seeds)"; both[i].Title != want {
			t.Errorf("title = %q, want %q", both[i].Title, want)
		}
		mean := &stats.Table{Columns: a.Columns}
		for r := 0; r < a.Rows(); r++ {
			row := make([]float64, len(a.Columns))
			for c := range row {
				row[c] = (a.Value(r, c) + b.Value(r, c)) / 2
			}
			mean.AddRow(a.RowLabel(r), row...)
		}
		if got, want := both[i].CSV(), mean.CSV(); got != want {
			t.Errorf("figure %d: 2-seed campaign\n%s\nmean of single-seed campaigns\n%s", i+5, got, want)
		}
	}
	// The BASE column is 1.0 in every seed, so its mean is exactly 1.0.
	if v := both[0].Value(0, 0); v != 1.0 {
		t.Fatalf("mean BASE speedup = %g", v)
	}
}

func TestGroupAverages(t *testing.T) {
	tb := &stats.Table{Columns: []string{"x"}}
	tb.AddRow("HM1", 2)
	tb.AddRow("HM2", 4)
	tb.AddRow("LM1", 10)
	tb.AddRow("AVG", 99)
	got := GroupAverages(tb, 0)
	if got["HM"] != 3 || got["LM"] != 10 {
		t.Fatalf("group averages = %v", got)
	}
	if _, ok := got["AV"]; ok {
		t.Fatal("AVG row leaked into group averages")
	}
}

func TestTimeseries(t *testing.T) {
	reg := obs.NewRegistry()
	var conflicts uint64
	var queue float64
	reg.CounterFunc("vault.row_conflicts", func() uint64 { return conflicts })
	reg.GaugeFunc("vault.read_queue", func() float64 { return queue })
	lat := reg.Histogram("vault.service_latency_ps")

	var snaps []obs.Snapshot
	conflicts += 10
	queue = 2
	lat.ObserveInt(100)
	snaps = append(snaps, reg.Snapshot("epoch", 5_000_000))
	conflicts += 25
	queue = 4
	snaps = append(snaps, reg.Snapshot("final", 10_000_000))

	metrics := []string{"vault.row_conflicts", "vault.read_queue",
		"vault.service_latency_ps", "no.such.metric"}

	cum := Timeseries(snaps, metrics, false)
	if cum.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", cum.Rows())
	}
	if got := cum.Value(1, 0); got != 35 {
		t.Errorf("cumulative conflicts at final = %g, want 35", got)
	}
	if got := cum.Value(1, 1); got != 4 {
		t.Errorf("gauge column = %g, want 4", got)
	}
	if got := cum.Value(0, 2); got != 100 {
		t.Errorf("histogram mean column = %g, want 100", got)
	}
	if got := cum.Value(1, 3); got != 0 {
		t.Errorf("absent metric = %g, want 0", got)
	}

	delta := Timeseries(snaps, metrics, true)
	if got := delta.Value(0, 0); got != 10 {
		t.Errorf("first delta row = %g, want 10 (cumulative so far)", got)
	}
	if got := delta.Value(1, 0); got != 25 {
		t.Errorf("second delta row = %g, want 25", got)
	}
	// Row labels carry the simulation time and tag.
	if s := delta.String(); !strings.Contains(s, "final") || !strings.Contains(s, "10.0us") {
		t.Errorf("table output missing time/tag labels:\n%s", s)
	}
}
