// Package plot renders stats.Table figures as ASCII bar charts, so
// campbench can show the paper's figures directly in a terminal without
// any plotting dependency.
package plot

import (
	"fmt"
	"math"
	"strings"

	"camps/internal/stats"
)

// Options controls chart rendering.
type Options struct {
	// Width is the maximum bar width in characters (default 48).
	Width int
	// Baseline draws bars relative to this value instead of zero (useful
	// for normalized figures where 1.0 is the reference); bars below the
	// baseline render leftward with '<', above with '>'.
	Baseline float64
	// UseBaseline enables Baseline (0 is a valid baseline).
	UseBaseline bool
	// Precision is the number of value decimals (default 3).
	Precision int
}

func (o *Options) applyDefaults() {
	if o.Width <= 0 {
		o.Width = 48
	}
	if o.Precision <= 0 {
		o.Precision = 3
	}
}

// Bars renders every (row, column) cell of the table as one labelled bar,
// grouped by row. Values must be finite; NaN/Inf cells render as "?".
func Bars(t *stats.Table, opts Options) string {
	opts.applyDefaults()
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	maxAbs := 0.0
	for r := 0; r < t.Rows(); r++ {
		for c := range t.Columns {
			v := t.Value(r, c)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d := v
			if opts.UseBaseline {
				d = v - opts.Baseline
			}
			if a := math.Abs(d); a > maxAbs {
				maxAbs = a
			}
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	labelW := 0
	for _, c := range t.Columns {
		if len(c) > labelW {
			labelW = len(c)
		}
	}
	for r := 0; r < t.Rows(); r++ {
		fmt.Fprintf(&sb, "%s\n", t.RowLabel(r))
		for c, name := range t.Columns {
			v := t.Value(r, c)
			fmt.Fprintf(&sb, "  %-*s ", labelW, name)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				sb.WriteString("?\n")
				continue
			}
			d := v
			if opts.UseBaseline {
				d = v - opts.Baseline
			}
			n := int(math.Round(math.Abs(d) / maxAbs * float64(opts.Width)))
			switch {
			case opts.UseBaseline && d < 0:
				fmt.Fprintf(&sb, "%s| %.*f\n", strings.Repeat("<", n), opts.Precision, v)
			case opts.UseBaseline:
				fmt.Fprintf(&sb, "|%s %.*f\n", strings.Repeat(">", n), opts.Precision, v)
			default:
				fmt.Fprintf(&sb, "%s %.*f\n", strings.Repeat("#", n), opts.Precision, v)
			}
		}
	}
	return sb.String()
}
