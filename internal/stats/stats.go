// Package stats provides the measurement primitives shared by the
// simulator: counters, latency accumulators, histograms, and the aggregate
// math (geometric means, normalized speedups) used to reproduce the paper's
// figures.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Counter is a simple monotonic event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// MarshalJSON encodes the counter as its bare value, so result structs
// that embed counters round-trip through checkpoint files.
func (c Counter) MarshalJSON() ([]byte, error) { return json.Marshal(c.n) }

// UnmarshalJSON decodes a bare value produced by MarshalJSON.
func (c *Counter) UnmarshalJSON(b []byte) error { return json.Unmarshal(b, &c.n) }

// LatencyAccum accumulates a latency distribution's sum/count/min/max.
type LatencyAccum struct {
	count uint64
	sum   float64
	min   float64
	max   float64
}

// Observe records one latency sample.
func (a *LatencyAccum) Observe(v float64) {
	if a.count == 0 || v < a.min {
		a.min = v
	}
	if a.count == 0 || v > a.max {
		a.max = v
	}
	a.count++
	a.sum += v
}

// Count returns the number of samples.
func (a LatencyAccum) Count() uint64 { return a.count }

// Mean returns the average sample, or 0 with no samples.
func (a LatencyAccum) Mean() float64 {
	if a.count == 0 {
		return 0
	}
	return a.sum / float64(a.count)
}

// Merge folds another accumulator into this one.
func (a *LatencyAccum) Merge(b LatencyAccum) {
	if b.count == 0 {
		return
	}
	if a.count == 0 {
		*a = b
		return
	}
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.count += b.count
	a.sum += b.sum
}

// latencyAccumJSON is the wire form of LatencyAccum.
type latencyAccumJSON struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// MarshalJSON encodes the accumulator's four moments, so result structs
// that embed accumulators round-trip through checkpoint files.
func (a LatencyAccum) MarshalJSON() ([]byte, error) {
	return json.Marshal(latencyAccumJSON{Count: a.count, Sum: a.sum, Min: a.min, Max: a.max})
}

// UnmarshalJSON decodes the form produced by MarshalJSON.
func (a *LatencyAccum) UnmarshalJSON(b []byte) error {
	var w latencyAccumJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	a.count, a.sum, a.min, a.max = w.Count, w.Sum, w.Min, w.Max
	return nil
}

// Histogram is a fixed-bucket histogram with a configurable bucket width.
type Histogram struct {
	width    float64
	buckets  []uint64
	overflow uint64
	total    uint64
	// max is the largest overflowed sample, and so the largest sample
	// whenever overflow > 0 — the only case in which Quantile reads it.
	max float64
}

// NewHistogram returns a histogram with n buckets of the given width.
// Sample v lands in bucket floor(v/width); v >= n*width counts as overflow.
func NewHistogram(n int, width float64) *Histogram {
	if n <= 0 || width <= 0 {
		panic("stats: histogram needs positive bucket count and width")
	}
	return &Histogram{width: width, buckets: make([]uint64, n)}
}

// Observe records a sample.
func (h *Histogram) Observe(v float64) {
	h.total++
	if v < 0 {
		v = 0
	}
	i := int(v / h.width)
	if i >= len(h.buckets) {
		h.overflow++
		h.max = max(h.max, v)
		return
	}
	h.buckets[i]++
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) using
// bucket upper edges. A quantile past the last bucket reports the largest
// sample, so the bound stays finite (and JSON-encodable).
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			return float64(i+1) * h.width
		}
	}
	return h.max
}

// GeoMean returns the geometric mean of strictly positive values.
// It returns 0 for an empty slice and panics on non-positive input, since a
// non-positive IPC always indicates a bookkeeping bug upstream.
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", v))
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Ratio returns a/b, or 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Table formats labelled rows of float columns as an aligned text table,
// used by the figure builders and the CLI tools.
type Table struct {
	Title   string
	Columns []string
	rows    []tableRow
}

type tableRow struct {
	label  string
	values []float64
}

// AddRow appends one row; the number of values must match Columns.
func (t *Table) AddRow(label string, values ...float64) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("stats: row %q has %d values, want %d", label, len(values), len(t.Columns)))
	}
	t.rows = append(t.rows, tableRow{label: label, values: values})
}

// Rows returns the number of rows added.
func (t *Table) Rows() int { return len(t.rows) }

// Value returns the value at (row, col).
func (t *Table) Value(row, col int) float64 { return t.rows[row].values[col] }

// RowLabel returns the label of row i.
func (t *Table) RowLabel(i int) string { return t.rows[i].label }

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "%s\n", t.Title)
	}
	labelW := len("workload")
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	fmt.Fprintf(&sb, "%-*s", labelW+2, "workload")
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, "%12s", c)
	}
	sb.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&sb, "%-*s", labelW+2, r.label)
		for _, v := range r.values {
			fmt.Fprintf(&sb, "%12.4f", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString("workload")
	for _, c := range t.Columns {
		sb.WriteByte(',')
		sb.WriteString(c)
	}
	sb.WriteByte('\n')
	for _, r := range t.rows {
		sb.WriteString(r.label)
		for _, v := range r.values {
			fmt.Fprintf(&sb, ",%.6f", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ColumnGeoMean returns the geometric mean of a column across rows.
func (t *Table) ColumnGeoMean(col int) float64 {
	vs := make([]float64, 0, len(t.rows))
	for _, r := range t.rows {
		vs = append(vs, r.values[col])
	}
	return GeoMean(vs)
}

// ColumnMean returns the arithmetic mean of a column across rows.
func (t *Table) ColumnMean(col int) float64 {
	vs := make([]float64, 0, len(t.rows))
	for _, r := range t.rows {
		vs = append(vs, r.values[col])
	}
	return Mean(vs)
}
