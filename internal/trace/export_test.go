package trace

// The gap table's tests and the generator benchmarks live in package
// trace_test, because they read the workload profiles and workload
// imports trace. These names give them the unexported pieces.

// ExpGap is the gap formula.
var ExpGap = expGap

// MaxDraw is the largest 53-bit draw.
const MaxDraw = maxDraw

// GapTable returns the shared table's lookup for mean and the first draw
// of each gap from 1 to the largest, or a nil lookup when the mean keeps
// the Log1p path.
func GapTable(mean float64) (lookup func(k uint64) uint32, first []uint64) {
	t := gapTableFor(mean)
	if t == nil {
		return nil, nil
	}
	return t.gap, t.first[1 : len(t.first)-1]
}
