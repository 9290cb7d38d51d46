package trace

// RNG is a SplitMix64 pseudo-random generator. It is tiny, fast,
// deterministic across platforms, and owned by this package so that trace
// generation can never be perturbed by changes to the standard library's
// generators.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator. Distinct seeds give independent-looking
// streams; seed 0 is fine.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("trace: Int63n with non-positive bound")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Geometric returns an exponential sample with the given mean, clamped to
// [0, 16*mean] (expGap of one 53-bit draw). Used for instruction gaps:
// only the mean and the presence of a tail matter to the core model.
func (r *RNG) Geometric(mean float64) uint32 {
	if mean <= 0 {
		return 0
	}
	return expGap(mean, r.Uint64()>>11)
}
