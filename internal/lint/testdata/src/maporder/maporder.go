// Golden file for the maporder analyzer: map iteration whose order can
// leak into output is a finding; collect-then-sort, map-to-map
// transforms, and pure aggregation are not.
package maporder

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"camps/internal/stats"
)

func BadAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `appends to keys while ranging over a map`
	}
	return keys
}

func GoodAppendThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // sorted below, so the random order never escapes
	}
	sort.Strings(keys)
	return keys
}

func GoodAppendThenSortSlice(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func BadFprintf(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt.Fprintf inside range over a map`
	}
}

func BadPrintln(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want `fmt.Println inside range over a map`
	}
}

func BadBuilder(m map[string]int) string {
	var sb strings.Builder
	for k := range m {
		sb.WriteString(k) // want `WriteString inside range over a map`
	}
	return sb.String()
}

func BadEncoder(w io.Writer, m map[string]int) {
	enc := json.NewEncoder(w)
	for k, v := range m {
		_ = enc.Encode(map[string]int{k: v}) // want `json.Encoder.Encode inside range over a map`
	}
}

func BadAddRow(t *stats.Table, m map[string]float64) {
	for k, v := range m {
		t.AddRow(k, v) // want `stats.Table.AddRow inside range over a map`
	}
}

func GoodMapToMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v // map-to-map: no order survives
	}
	return out
}

func GoodAggregate(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v // commutative fold: order-independent
	}
	return n
}

func GoodLoopLocalAppend(m map[string]string) int {
	total := 0
	for _, v := range m {
		parts := strings.Split(v, ".")
		parts = append(parts, "x") // parts dies each iteration: nothing leaks
		total += len(parts)
	}
	return total
}

func GoodSliceRange(w io.Writer, keys []string) {
	for _, k := range keys {
		fmt.Fprintln(w, k) // ranging a slice is ordered; only maps are flagged
	}
}
