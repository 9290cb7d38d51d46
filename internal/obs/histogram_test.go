package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestBucketIndexExactRange: values below subCnt land in their own bucket
// and are reported exactly.
func TestBucketIndexExactRange(t *testing.T) {
	for v := uint64(0); v < subCnt; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Errorf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
		if up := bucketUpper(int(v)); up != v {
			t.Errorf("bucketUpper(%d) = %d, want %d", v, up, v)
		}
	}
}

// TestBucketIndexMonotoneAndCovering: walking sample values upward never
// decreases the bucket index, every value lands inside its bucket's range,
// and bucket ranges tile the value space without gaps.
func TestBucketIndexMonotoneAndCovering(t *testing.T) {
	last := -1
	for _, v := range bucketProbeValues() {
		i := bucketIndex(v)
		if i < last {
			t.Fatalf("bucketIndex not monotone: bucketIndex(%d) = %d after %d", v, i, last)
		}
		last = i
		if i < 0 || i >= nBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of [0,%d)", v, i, nBuckets)
		}
		if up := bucketUpper(i); v > up {
			t.Errorf("value %d above its bucket upper edge %d (bucket %d)", v, up, i)
		}
	}
}

// TestBucketEdgesContiguous: each bucket's range starts right after the
// previous bucket's upper edge, for the buckets reachable by uint64 values.
func TestBucketEdgesContiguous(t *testing.T) {
	maxIdx := bucketIndex(math.MaxUint64)
	prev := bucketUpper(0)
	for i := 1; i <= maxIdx; i++ {
		up := bucketUpper(i)
		if up <= prev {
			t.Fatalf("bucketUpper(%d) = %d not above bucketUpper(%d) = %d", i, up, i-1, prev)
		}
		// The lowest value in bucket i must map back to bucket i.
		if got := bucketIndex(prev + 1); got != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d (gap or overlap at bucket edge)", prev+1, got, i)
		}
		prev = up
	}
	if up := bucketUpper(maxIdx); up != math.MaxUint64 {
		t.Errorf("top bucket upper edge = %d, want MaxUint64", up)
	}
}

// TestBucketEdgeValues: boundary samples (2^k-1, 2^k, 2^k+1) map into
// buckets whose range actually contains them.
func TestBucketEdgeValues(t *testing.T) {
	for k := uint(1); k < 64; k++ {
		for _, v := range []uint64{1<<k - 1, 1 << k, 1<<k + 1} {
			i := bucketIndex(v)
			up := bucketUpper(i)
			var lo uint64
			if i > 0 {
				lo = bucketUpper(i-1) + 1
			}
			if v < lo || v > up {
				t.Errorf("value %d in bucket %d with range [%d,%d]", v, i, lo, up)
			}
		}
	}
}

// TestHistogramRelativeError: the quantile estimate is an upper bound on
// the exact quantile and within the 2^-subBits relative error guarantee.
func TestHistogramRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := newHistogram()
	samples := make([]uint64, 0, 10_000)
	for i := 0; i < 10_000; i++ {
		// Log-uniform over ~6 decades, like latency distributions.
		v := uint64(math.Exp(rng.Float64() * 14))
		samples = append(samples, v)
		h.ObserveInt(int64(v))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	relErr := 1.0 / float64(subCnt) // 12.5% with subBits = 3
	for _, q := range []float64{0.50, 0.90, 0.95, 0.99, 1.0} {
		idx := int(math.Ceil(q*float64(len(samples)))) - 1
		exact := float64(samples[idx])
		got := h.quantile(q)
		if got < exact {
			t.Errorf("q=%.2f: estimate %.0f below exact %.0f", q, got, exact)
		}
		if exact > 0 && got > exact*(1+relErr)+1 {
			t.Errorf("q=%.2f: estimate %.0f exceeds exact %.0f by more than %.1f%%",
				q, got, exact, relErr*100)
		}
	}
}

// TestHistogramSmallCounts: with few samples the quantiles pick the right
// order statistic (ceil(q*n)-th smallest).
func TestHistogramSmallCounts(t *testing.T) {
	h := newHistogram()
	if got := h.quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile(0.5) = %v, want 0", got)
	}
	for _, v := range []int64{3, 1, 2} {
		h.ObserveInt(v)
	}
	// Exact buckets below subCnt: the median of {1,2,3} must be exactly 2.
	if got := h.quantile(0.5); got != 2 {
		t.Errorf("median of {1,2,3} = %v, want 2", got)
	}
	if got := h.quantile(1.0); got != 3 {
		t.Errorf("max quantile = %v, want 3", got)
	}
	if got := h.mean(); got != 2 {
		t.Errorf("mean = %v, want 2", got)
	}
}

// TestHistogramNegativeClamp: negative samples count as zero rather than
// corrupting the bucket array.
func TestHistogramNegativeClamp(t *testing.T) {
	h := newHistogram()
	h.ObserveInt(-100)
	h.ObserveInt(-3)
	if h.count != 2 {
		t.Fatalf("count = %d, want 2", h.count)
	}
	if h.max != 0 || h.sum != 0 {
		t.Errorf("max = %d sum = %v, want 0/0", h.max, h.sum)
	}
	if got := h.quantile(0.99); got != 0 {
		t.Errorf("quantile of all-negative samples = %v, want 0", got)
	}
}

// TestHistogramQuantileClamp: the reported quantile never exceeds the
// observed maximum even when the bucket's upper edge does.
func TestHistogramQuantileClamp(t *testing.T) {
	h := newHistogram()
	h.ObserveInt(1000) // bucket upper edge is above 1000
	if got := h.quantile(0.99); got != 1000 {
		t.Errorf("single-sample quantile = %v, want clamped 1000", got)
	}
}

// bucketProbeValues returns an increasing sweep of interesting uint64
// values: the exact range, then every octave's edges and interior points.
func bucketProbeValues() []uint64 {
	var vals []uint64
	for v := uint64(0); v < subCnt*4; v++ {
		vals = append(vals, v)
	}
	for k := uint(5); k < 64; k++ {
		base := uint64(1) << k
		vals = append(vals, base-1, base, base+base/4, base+base/2, base+base-1)
	}
	vals = append(vals, math.MaxUint64)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveInt(int64(i) * 997)
	}
}
