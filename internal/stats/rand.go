package stats

// Mix64 hashes an arbitrary 64-bit value through the SplitMix64 finalizer.
// It is the mixing core behind both the stream RNG and the counter-based
// per-cell RNG of the erosion application.
func Mix64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashUniform maps an arbitrary tuple of integers to a uniform float64 in
// [0, 1) deterministically. The erosion application calls it as
// HashUniform(seed, iteration, x, y): the outcome for a cell depends only on
// the global seed and the cell's coordinates in space and time, never on
// which PE owns the cell. This makes the physical dynamics bit-identical
// across partitionings and load balancing policies.
func HashUniform(parts ...uint64) float64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, p := range parts {
		h = Mix64(h ^ p)
	}
	// 53 random bits -> uniform double in [0,1).
	return float64(h>>11) / (1 << 53)
}

// RNG is a small, fast, deterministic pseudo-random generator (SplitMix64
// stream). It intentionally mirrors the subset of math/rand used by the
// experiment drivers so seeds fully determine every sampled instance.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := r.state
	r.state += 0x9e3779b97f4a7c15
	return Mix64(s)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn requires n > 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of 0..n-1 (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split derives an independent generator from this one. Deriving rather than
// sharing keeps parallel experiment workers deterministic regardless of
// scheduling order.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa0761d6478bd642f)
}
