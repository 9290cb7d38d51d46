package trace

import (
	"math"
	"sync"
)

// expGap is the instruction-gap formula: an exponential sample with the
// given mean, drawn from the 53-bit uniform k (u = k/2^53), clamped to
// [0, 16*mean] and truncated. It is the only definition of a gap. RNG's
// Log1p path calls it and gap tables are built by evaluating it, so it
// is kept out of line: a second, inlined copy could compile to different
// floating-point operations and tell the table a boundary the Log1p path
// does not have.
//
//go:noinline
func expGap(mean float64, k uint64) uint32 {
	u := float64(k) / (1 << 53)
	v := -mean * math.Log1p(-u)
	if v > 16*mean {
		v = 16 * mean
	}
	return uint32(v)
}

const (
	// maxDraw is the largest 53-bit draw.
	maxDraw = 1<<53 - 1
	// gapBucketBits is log2 of a gap table's bucket count: the draw's top
	// ten bits index its base gaps.
	gapBucketBits  = 10
	gapBucketShift = 53 - gapBucketBits
	// maxTableGap is the largest gap a table holds. A mean whose clamp
	// 16*mean exceeds it keeps the Log1p path.
	maxTableGap = 1 << 10
)

// gapTable is expGap for one mean, inverted. expGap is a non-decreasing
// step function of k, so it is fully described by the smallest draw that
// reaches each gap; a lookup starts at its bucket's base gap and steps
// over the boundaries inside the bucket, rarely more than one.
type gapTable struct {
	base  [1 << gapBucketBits]uint16 // gap of each bucket's first draw
	first []uint64                   // first[g]: smallest draw with gap >= g; first[top+1] = MaxUint64
}

// gap returns expGap(mean, k) for the table's mean and any 53-bit k.
func (t *gapTable) gap(k uint64) uint32 {
	g := uint32(t.base[k>>gapBucketShift])
	for k >= t.first[g+1] {
		g++
	}
	return g
}

// gapTables holds one table per distinct mean, keyed by the mean's bits,
// for the whole process. Tables are immutable once built, so generators,
// their clones and concurrent campaign cells share them.
var gapTables sync.Map // uint64 -> *gapTable

// gapTableFor returns the shared table for mean, building it on first
// use. It returns nil for the means that keep RNG.Geometric: zero,
// negative and NaN means, and means whose clamp 16*mean exceeds
// maxTableGap, infinite ones included.
func gapTableFor(mean float64) *gapTable {
	if !(mean > 0) || 16*mean > maxTableGap {
		return nil
	}
	key := math.Float64bits(mean)
	if t, ok := gapTables.Load(key); ok {
		return t.(*gapTable)
	}
	t, _ := gapTables.LoadOrStore(key, newGapTable(mean))
	return t.(*gapTable)
}

// newGapTable inverts expGap for mean, whose clamp must fit the table.
func newGapTable(mean float64) *gapTable {
	top := expGap(mean, maxDraw)
	t := &gapTable{first: make([]uint64, top+2)}
	for g := uint32(1); g <= top; g++ {
		t.first[g] = uint64(firstDraw(mean, g, int64(t.first[g-1])))
	}
	t.first[top+1] = math.MaxUint64
	g := uint32(0)
	for i := range t.base {
		k := uint64(i) << gapBucketShift
		for k >= t.first[g+1] {
			g++
		}
		t.base[i] = uint16(g)
	}
	return t
}

// firstDraw returns the smallest draw k >= lo with expGap(mean, k) >= g,
// given that the largest draw reaches g. It starts from the formula's
// analytic inverse, 2^53·(1 - e^(-g/mean)), which lands within a draw or
// two of the boundary, then brackets and bisects it with expGap itself.
func firstDraw(mean float64, g uint32, lo int64) int64 {
	reaches := func(k int64) bool { return expGap(mean, uint64(k)) >= g }
	k := int64(-math.Expm1(-float64(g)/mean) * (1 << 53))
	k = min(max(k, lo), maxDraw)
	// Invariant: reaches(b), and !reaches(a) or a is below the range.
	a, b := k-1, k
	for step := int64(1); !reaches(b); step *= 2 {
		a, b = b, min(b+step, maxDraw)
	}
	for step := int64(1); a >= lo && reaches(a); step *= 2 {
		a, b = max(a-step, lo-1), a
	}
	for b-a > 1 {
		if m := a + (b-a)/2; reaches(m) {
			b = m
		} else {
			a = m
		}
	}
	return b
}
