package trace

import "fmt"

// Profile parameterizes a synthetic benchmark's memory behaviour. The knobs
// map onto the properties that drive the CAMPS mechanisms:
//
//   - Plain streams sweep memory one line at a time, producing long
//     row-buffer episodes and high row utilization (the RUT signal).
//   - The conflict group is a set of streams spaced exactly one bank
//     stride apart: under the RoRaBaVaCo mapping its members occupy
//     adjacent rows of the *same bank* and advance together, so their
//     interleaved accesses ping-pong that bank's row buffer. Every access
//     still touches a fresh cache line, so the caches cannot absorb the
//     pattern — this is the conflict-prone traffic the CT exists for.
//   - Random jumps are single-touch rows: pure prefetch poison.
//
// Footprint, against the cache hierarchy, determines the memory-intensity
// class of §4.1.
type Profile struct {
	Name            string
	FootprintBytes  int64   // per-core working set
	GapMean         float64 // mean non-memory instructions per memory op
	ReadFrac        float64 // fraction of references that are reads
	Streams         int     // concurrent plain sequential streams
	StreamProb      float64 // probability of continuing a plain stream
	StrideBytes     int64   // stream stride (usually one cache line)
	ConflictProb    float64 // probability of a conflict-group access
	ConflictStreams int     // members of the conflict group
	ConflictStride  int64   // member spacing: one bank stride
	LineBytes       int64   // cache-line granularity for alignment
}

// Validate reports configuration errors.
func (p Profile) Validate() error {
	switch {
	case p.FootprintBytes <= 0:
		return fmt.Errorf("trace: profile %q: footprint must be positive", p.Name)
	case p.ReadFrac < 0 || p.ReadFrac > 1:
		return fmt.Errorf("trace: profile %q: read fraction outside [0,1]", p.Name)
	case p.Streams <= 0:
		return fmt.Errorf("trace: profile %q: need at least one stream", p.Name)
	case p.StreamProb < 0 || p.StreamProb+p.ConflictProb > 1:
		return fmt.Errorf("trace: profile %q: stream+conflict probability exceeds 1", p.Name)
	case p.StrideBytes <= 0:
		return fmt.Errorf("trace: profile %q: stride must be positive", p.Name)
	case p.ConflictProb > 0 && p.ConflictStreams <= 0:
		return fmt.Errorf("trace: profile %q: conflict accesses need group members", p.Name)
	case p.ConflictStreams > 0 && p.ConflictStride <= 0:
		return fmt.Errorf("trace: profile %q: conflict group needs a positive stride", p.Name)
	case p.ConflictStreams > 0 && int64(p.ConflictStreams)*p.ConflictStride > p.FootprintBytes:
		return fmt.Errorf("trace: profile %q: conflict group exceeds the footprint", p.Name)
	case p.LineBytes <= 0:
		return fmt.Errorf("trace: profile %q: line bytes must be positive", p.Name)
	}
	return nil
}

// Generator produces an endless, deterministic reference stream for one
// core following a Profile. It implements Reader but never returns io.EOF;
// wrap it in a Limit for finite runs.
type Generator struct {
	p       Profile
	rng     *RNG
	base    uint64
	streams []uint64 // current byte offsets within the footprint
	group   []uint64 // conflict-group member offsets
}

// NewGenerator builds a generator whose addresses live in
// [base, base+footprint), deterministic in seed.
func NewGenerator(p Profile, base uint64, seed uint64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{p: p, rng: NewRNG(seed), base: base}
	g.streams = make([]uint64, p.Streams)
	for i := range g.streams {
		g.streams[i] = uint64(g.rng.Int63n(p.FootprintBytes))
	}
	if p.ConflictStreams > 0 {
		g.group = make([]uint64, p.ConflictStreams)
		g.resetGroup()
	}
	return g, nil
}

// resetGroup places the conflict group at a fresh row-aligned position,
// members one bank stride apart (same bank, adjacent rows).
func (g *Generator) resetGroup() {
	p := &g.p
	span := int64(p.ConflictStreams) * p.ConflictStride
	start := uint64(g.rng.Int63n(maxInt64(1, p.FootprintBytes-span)))
	start &^= 1023 // row aligned
	for i := range g.group {
		g.group[i] = start + uint64(i)*uint64(p.ConflictStride)
	}
}

// Clone returns an independent generator in g's exact state: it yields the
// same records g would from here on.
func (g *Generator) Clone() *Generator {
	cp := *g
	rng := *g.rng
	cp.rng = &rng
	cp.streams = append([]uint64(nil), g.streams...)
	cp.group = append([]uint64(nil), g.group...)
	return &cp
}

// MustGenerator is NewGenerator for known-good profiles.
func MustGenerator(p Profile, base uint64, seed uint64) *Generator {
	g, err := NewGenerator(p, base, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// Next implements Reader; it never fails.
func (g *Generator) Next() (Record, error) {
	gap := g.rng.Geometric(g.p.GapMean)
	addr, write := g.access()
	return Record{Gap: gap, Addr: addr, Write: write}, nil
}

// NextAccess advances g exactly as Next does and returns the record's
// address and direction, skipping the gap's computation: it draws the
// gap's random bits and discards them. A functional warmup, which has no
// timing, reads its records this way.
func (g *Generator) NextAccess() (addr uint64, write bool) {
	if g.p.GapMean > 0 {
		g.rng.Uint64() // Geometric's one Float64 draw
	}
	return g.access()
}

// access draws the address and direction of the next record, after its gap.
func (g *Generator) access() (addr uint64, write bool) {
	p := &g.p
	u := g.rng.Float64()
	var off uint64
	switch {
	case u < p.ConflictProb:
		// Conflict group: a random member reads its next line and
		// advances. Members share a bank, so interleaving them ping-pongs
		// the row buffer while every access touches a fresh line.
		m := g.rng.Intn(len(g.group))
		off = g.group[m]
		g.group[m] += uint64(p.StrideBytes)
		if g.group[m] >= uint64(p.FootprintBytes) {
			g.resetGroup()
		}
	case u < p.ConflictProb+p.StreamProb:
		s := g.rng.Intn(len(g.streams))
		off = g.streams[s]
		g.streams[s] = (g.streams[s] + uint64(p.StrideBytes)) % uint64(p.FootprintBytes)
	default:
		// Irregular jump: a single-touch line somewhere in the footprint —
		// pure prefetch poison, deliberately independent of the streams.
		off = uint64(g.rng.Int63n(p.FootprintBytes))
	}
	addr = (g.base + off%uint64(g.p.FootprintBytes)) &^ uint64(p.LineBytes-1)
	return addr, g.rng.Float64() >= p.ReadFrac
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
