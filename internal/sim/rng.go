package sim

import "math/rand"

// RNG is a deterministic random source with the distribution helpers the
// workload generators need. It wraps math/rand with a fixed seed so every
// experiment is reproducible run-to-run.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exp returns an exponential sample with the given mean. A non-positive
// mean returns 0, which lets callers express "no gap" arrival processes.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Normal returns a Gaussian sample with the given mean and stddev.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return g.r.NormFloat64()*stddev + mean
}
