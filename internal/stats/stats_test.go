package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 6 {
		t.Fatalf("counter = %d, want 6", c.Value())
	}
}

func TestLatencyAccum(t *testing.T) {
	var a LatencyAccum
	if a.Mean() != 0 || a.min != 0 || a.max != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	for _, v := range []float64{10, 20, 30} {
		a.Observe(v)
	}
	if a.Count() != 3 || !almostEq(a.Mean(), 20) || a.min != 10 || a.max != 30 {
		t.Fatalf("accum = count %d mean %g min %g max %g", a.Count(), a.Mean(), a.min, a.max)
	}
}

func TestLatencyAccumMerge(t *testing.T) {
	var a, b LatencyAccum
	a.Observe(1)
	a.Observe(3)
	b.Observe(10)
	a.Merge(b)
	if a.Count() != 3 || a.max != 10 || a.min != 1 || !almostEq(a.sum, 14) {
		t.Fatalf("merged accum wrong: %+v", a)
	}
	var empty LatencyAccum
	a.Merge(empty)
	if a.Count() != 3 {
		t.Fatal("merging empty changed count")
	}
	var c LatencyAccum
	c.Merge(a)
	if c.Count() != 3 || c.min != 1 {
		t.Fatal("merge into empty lost data")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4, 10)
	for _, v := range []float64{0, 5, 15, 35, 100, -2} {
		h.Observe(v)
	}
	if h.total != 6 {
		t.Fatalf("total = %d, want 6", h.total)
	}
	if h.buckets[0] != 3 { // 0, 5, and clamped -2
		t.Fatalf("bucket 0 = %d, want 3", h.buckets[0])
	}
	if h.buckets[1] != 1 || h.buckets[3] != 1 {
		t.Fatalf("buckets = [%d %d %d %d]", h.buckets[0], h.buckets[1], h.buckets[2], h.buckets[3])
	}
	var inBuckets uint64
	for _, n := range h.buckets {
		inBuckets += n
	}
	if overflow := h.total - inBuckets; overflow != 1 {
		t.Fatalf("overflow = %d, want 1", overflow)
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Fatalf("median = %g, want 10", q)
	}
	if q := h.Quantile(1.0); q != 100 {
		t.Fatalf("p100 with overflow = %g, want the largest sample 100", q)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(2, 1)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
	if g := GeoMean([]float64{2, 8}); !almostEq(g, 4) {
		t.Fatalf("GeoMean(2,8) = %g, want 4", g)
	}
	if g := GeoMean([]float64{3, 3, 3}); !almostEq(g, 3) {
		t.Fatalf("GeoMean(3,3,3) = %g, want 3", g)
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean of zero did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

// Property: geomean lies between min and max and is scale-equivariant.
func TestGeoMeanProperties(t *testing.T) {
	prop := func(raw []uint8) bool {
		var vs []float64
		for _, r := range raw {
			vs = append(vs, float64(r)+1) // strictly positive
		}
		if len(vs) == 0 {
			return true
		}
		g := GeoMean(vs)
		mn, mx := vs[0], vs[0]
		for _, v := range vs {
			mn = math.Min(mn, v)
			mx = math.Max(mx, v)
		}
		if g < mn-1e-9 || g > mx+1e-9 {
			return false
		}
		scaled := make([]float64, len(vs))
		for i, v := range vs {
			scaled[i] = v * 2
		}
		return math.Abs(GeoMean(scaled)-2*g) < 1e-6*g
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupAndRatios(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero denominator should be 0")
	}
}

func TestTable(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"A", "B"}}
	tb.AddRow("HM1", 1.0, 2.0)
	tb.AddRow("LM1", 3.0, 4.0)
	if tb.Rows() != 2 || tb.Value(1, 1) != 4.0 || tb.RowLabel(0) != "HM1" {
		t.Fatal("table accessors broken")
	}
	out := tb.String()
	for _, want := range []string{"demo", "HM1", "LM1", "A", "B", "3.0000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "workload,A,B\n") || !strings.Contains(csv, "HM1,1.000000,2.000000") {
		t.Fatalf("csv wrong:\n%s", csv)
	}
	if g := tb.ColumnGeoMean(0); !almostEq(g, math.Sqrt(3)) {
		t.Fatalf("column geomean = %g", g)
	}
	if m := tb.ColumnMean(1); !almostEq(m, 3) {
		t.Fatalf("column mean = %g", m)
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := &Table{Columns: []string{"A"}}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched AddRow did not panic")
		}
	}()
	tb.AddRow("x", 1, 2)
}

// Regression: LatencyAccum's min/max must seed from the first sample
// rather than the zero value, so all-negative sample streams (e.g. clock
// skew deltas) report a negative max instead of a spurious 0.
func TestLatencyAccumNegativeSamples(t *testing.T) {
	var a LatencyAccum
	for _, v := range []float64{-30, -10, -20} {
		a.Observe(v)
	}
	if a.min != -30 || a.max != -10 {
		t.Fatalf("min/max = %g/%g, want -30/-10", a.min, a.max)
	}
	if !almostEq(a.Mean(), -20) {
		t.Fatalf("mean = %g, want -20", a.Mean())
	}
}

// Regression: Merge must preserve min/max across disjoint negative and
// positive ranges and not re-seed from zero values.
func TestLatencyAccumMergeNegativeRanges(t *testing.T) {
	var neg, pos LatencyAccum
	neg.Observe(-5)
	neg.Observe(-1)
	pos.Observe(2)
	pos.Observe(8)
	neg.Merge(pos)
	if neg.Count() != 4 || neg.min != -5 || neg.max != 8 {
		t.Fatalf("merged = count %d min %g max %g, want 4/-5/8", neg.Count(), neg.min, neg.max)
	}
	if !almostEq(neg.sum, 4) {
		t.Fatalf("merged sum = %g, want 4", neg.sum)
	}
	// Merging an all-negative accumulator into an empty one must not keep
	// the empty zero max.
	var c LatencyAccum
	var onlyNeg LatencyAccum
	onlyNeg.Observe(-7)
	c.Merge(onlyNeg)
	if c.max != -7 || c.min != -7 {
		t.Fatalf("empty.Merge(neg) min/max = %g/%g, want -7/-7", c.min, c.max)
	}
}

func TestCounterJSONRoundTrip(t *testing.T) {
	var c Counter
	c.Add(42)
	b, err := json.Marshal(struct{ N Counter }{c})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"N":42}` {
		t.Fatalf("counter marshalled as %s", b)
	}
	var back struct{ N Counter }
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.N.Value() != 42 {
		t.Fatalf("round-trip = %d, want 42", back.N.Value())
	}
}

func TestLatencyAccumJSONRoundTrip(t *testing.T) {
	var a LatencyAccum
	a.Observe(10)
	a.Observe(30)
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back LatencyAccum
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != 2 || back.sum != 40 || back.min != 10 || back.max != 30 {
		t.Fatalf("round-trip = count %d sum %g min %g max %g", back.Count(), back.sum, back.min, back.max)
	}
	if back.Mean() != a.Mean() {
		t.Fatalf("mean %g != %g", back.Mean(), a.Mean())
	}
}
