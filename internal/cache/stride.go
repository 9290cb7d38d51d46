package cache

// StrideDetector is a classic core-side stride prefetcher's training
// table, fed with the L2 miss stream. The CAMPS paper's §2.4 argues that
// in an HMC, *memory-side* prefetching beats this kind of core-side
// engine because the core side can neither see bank state nor move whole
// rows over the TSVs; this detector exists so that claim can be tested
// rather than assumed (see the CoreSidePrefetch ablation).
//
// Entries are indexed by 4 KB region. A stride is confirmed after it
// repeats; confirmed entries predict the next Degree lines along the
// stride that fall in [0, limit), the addresses the caches can tag.
type StrideDetector struct {
	entries []strideEntry
	degree  int
	limit   uint64
}

type strideEntry struct {
	tag        uint64 // region id
	lastAddr   uint64
	stride     int64
	confidence int
	valid      bool
}

// strideConfidence is the number of consecutive identical strides that
// confirm a pattern.
const strideConfidence = 2

// NewStrideDetector returns a detector with the given table size
// (regions tracked) and prefetch degree whose predictions stay below
// limit (AddressLimit).
func NewStrideDetector(tableSize, degree int, limit uint64) *StrideDetector {
	if tableSize <= 0 || degree <= 0 {
		panic("cache: stride detector needs positive table size and degree")
	}
	return &StrideDetector{entries: make([]strideEntry, tableSize), degree: degree, limit: limit}
}

// Observe trains on one miss address and returns the predicted prefetch
// addresses (empty until the stride is confirmed).
func (d *StrideDetector) Observe(addr uint64) []uint64 {
	region := addr >> 12
	e := &d.entries[region%uint64(len(d.entries))]
	if !e.valid || e.tag != region {
		*e = strideEntry{tag: region, lastAddr: addr, valid: true}
		return nil
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.confidence < strideConfidence {
			e.confidence++
		}
	} else {
		e.stride = stride
		e.confidence = 1
	}
	e.lastAddr = addr
	if e.confidence < strideConfidence {
		return nil
	}
	out := make([]uint64, 0, d.degree)
	next := int64(addr)
	for i := 0; i < d.degree; i++ {
		next += e.stride
		if next < 0 || uint64(next) >= d.limit {
			break
		}
		out = append(out, uint64(next))
	}
	return out
}
