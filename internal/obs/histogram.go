package obs

import (
	"math"
	"math/bits"
)

// The histogram is log-bucketed with 2^subBits sub-buckets per octave
// (power of two), the classic HDR-lite layout: values below 2^subBits are
// recorded exactly; above that, each octave [2^k, 2^(k+1)) splits into
// 2^subBits equal-width buckets, bounding the relative quantile error at
// 2^-subBits (12.5% with subBits = 3) while keeping the whole structure a
// fixed array — ObserveInt never allocates.
const (
	subBits = 3
	subCnt  = 1 << subBits
	// nBuckets covers every uint64: subCnt exact buckets plus subCnt per
	// octave for octaves subBits..63.
	nBuckets = subCnt + (64-subBits)*subCnt
)

// Histogram is a fixed-size log-bucketed histogram of non-negative
// integer-valued samples (latencies in picoseconds, sizes in bytes, ...).
// Negative samples clamp to zero.
type Histogram struct {
	count   uint64
	sum     float64
	max     uint64
	buckets [nBuckets]uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a sample to its bucket.
func bucketIndex(v uint64) int {
	if v < subCnt {
		return int(v)
	}
	h := uint(bits.Len64(v) - 1) // position of the MSB, >= subBits
	sub := int(v>>(h-subBits)) - subCnt
	return subCnt + int(h-subBits)*subCnt + sub
}

// bucketUpper returns the largest sample value that lands in bucket i,
// the upper edge quantile reports.
func bucketUpper(i int) uint64 {
	if i < subCnt {
		return uint64(i)
	}
	octave := uint((i - subCnt) / subCnt)
	sub := uint64((i - subCnt) % subCnt)
	low := (subCnt + sub) << octave
	return low + (uint64(1)<<octave - 1)
}

// ObserveInt records one sample.
func (h *Histogram) ObserveInt(v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.count++
	h.sum += float64(u)
	if u > h.max {
		h.max = u
	}
	h.buckets[bucketIndex(u)]++
}

// mean returns the average sample, or 0 with no samples.
func (h *Histogram) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// quantile returns an upper bound on the q-quantile (0 < q <= 1): the
// upper edge of the bucket containing the target sample, clamped at the
// observed maximum. With no samples it returns 0.
func (h *Histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			upper := bucketUpper(i)
			if upper > h.max {
				upper = h.max
			}
			return float64(upper)
		}
	}
	return float64(h.max)
}
