package plot

import (
	"math"
	"strings"
	"testing"

	"camps/internal/stats"
)

func sample() *stats.Table {
	t := &stats.Table{Title: "demo figure", Columns: []string{"A", "BB"}}
	t.AddRow("HM1", 1.0, 2.0)
	t.AddRow("LM1", 0.5, 1.0)
	return t
}

func TestBarsBasic(t *testing.T) {
	out := Bars(sample(), Options{Width: 10})
	for _, want := range []string{"demo figure", "HM1", "LM1", "A ", "BB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Largest value (2.0) gets the full width of '#'.
	if !strings.Contains(out, strings.Repeat("#", 10)+" 2.000") {
		t.Fatalf("max bar not full width:\n%s", out)
	}
	// Half value gets roughly half the bars.
	if !strings.Contains(out, strings.Repeat("#", 5)+" 1.000") {
		t.Fatalf("mid bar not scaled:\n%s", out)
	}
}

func TestBarsBaseline(t *testing.T) {
	tb := &stats.Table{Title: "norm", Columns: []string{"X"}}
	tb.AddRow("up", 1.5)
	tb.AddRow("down", 0.5)
	out := Bars(tb, Options{Width: 8, Baseline: 1.0, UseBaseline: true})
	if !strings.Contains(out, "|"+strings.Repeat(">", 8)) {
		t.Fatalf("above-baseline bar missing:\n%s", out)
	}
	if !strings.Contains(out, strings.Repeat("<", 8)+"|") {
		t.Fatalf("below-baseline bar missing:\n%s", out)
	}
}

func TestBarsHandlesNonFinite(t *testing.T) {
	tb := &stats.Table{Columns: []string{"X"}}
	tb.AddRow("nan", math.NaN())
	tb.AddRow("inf", math.Inf(1))
	out := Bars(tb, Options{})
	if strings.Count(out, "?") != 2 {
		t.Fatalf("non-finite cells not flagged:\n%s", out)
	}
}

func TestBarsAllZero(t *testing.T) {
	tb := &stats.Table{Columns: []string{"X"}}
	tb.AddRow("z", 0)
	out := Bars(tb, Options{})
	if !strings.Contains(out, " 0.000") {
		t.Fatalf("zero row mis-rendered:\n%s", out)
	}
}
