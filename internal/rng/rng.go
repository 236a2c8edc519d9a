// Package rng provides deterministic pseudo-random number generation and the
// probability distributions used throughout the FedCA simulator.
//
// All randomness in the repository flows from a single master seed through
// named sub-streams (see Fork), so that experiments are reproducible
// bit-for-bit regardless of goroutine scheduling or worker count.
//
// The core generator is xoshiro256**, seeded via SplitMix64, matching the
// reference implementations by Blackman and Vigna.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is NOT safe for concurrent use; create one RNG per goroutine via Fork.
type RNG struct {
	s [4]uint64
	// cached spare normal variate (Marsaglia polar method)
	hasSpare bool
	spare    float64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding xoshiro.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns an RNG seeded from the given 64-bit seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed sets r's whole state from a 64-bit seed, as New does for a fresh
// generator: whatever r held before, the spare normal variate included, is
// gone.
func (r *RNG) seed(seed uint64) {
	*r = RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not be seeded with all zeros; splitMix64 output of any
	// seed cannot be all zeros across four draws, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Fork derives an independent child RNG identified by a label path. Typical
// use: master.Fork("client", 17, "round", 3). The derivation hashes the
// parent's state snapshot together with the labels, so forking does not
// disturb the parent stream and equal paths always yield equal children.
func (r *RNG) Fork(labels ...interface{}) *RNG {
	c := &RNG{}
	r.ForkInto(c, labels...)
	return c
}

// ForkInto is Fork writing the child over dst instead of a new RNG: dst ends
// up seeded exactly as Fork's result would be, whatever it held before. An
// owner that re-derives a stream per use — a pooled virtual-fleet slot, a
// per-call sub-stream — reuses one generator this way and allocates
// nothing.
func (r *RNG) ForkInto(dst *RNG, labels ...interface{}) {
	// The hash is 64-bit FNV-1a, written out so that no hasher is allocated.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime64
		}
	}
	for _, s := range r.s {
		put(s)
	}
	for _, l := range labels {
		switch v := l.(type) {
		case string:
			for i := 0; i < len(v); i++ {
				h ^= uint64(v[i])
				h *= prime64
			}
		case int:
			put(uint64(v))
		case int64:
			put(uint64(v))
		case uint64:
			put(v)
		case float64:
			put(math.Float64bits(v))
		default:
			// Unknown label types would silently collide; fail loudly in
			// development rather than produce correlated streams.
			panic("rng: unsupported Fork label type")
		}
	}
	dst.seed(h)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits, standard conversion.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster; the
	// simple modulo of a 64-bit draw has negligible bias for our n (< 2^32).
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation, using the Marsaglia polar method.
func (r *RNG) Normal(mean, stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + stddev*r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * f
			r.hasSpare = true
			return mean + stddev*u*f
		}
	}
}

// Gamma returns a gamma-distributed float64 with the given shape and scale
// (mean shape*scale), using the Marsaglia–Tsang method. The paper's client
// dynamicity model draws fast/slow durations from Γ(2, 40) and Γ(2, 6).
// It panics if shape or scale is non-positive.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma with non-positive shape or scale")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Normal(0, 1)
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return scale * d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return scale * d * v
		}
	}
}

// Dirichlet fills out with a draw from a symmetric Dirichlet distribution of
// the given concentration α over len(out) categories. Used to generate the
// non-IID class composition of client datasets (paper uses α = 0.1).
func (r *RNG) Dirichlet(alpha float64, out []float64) {
	if alpha <= 0 {
		panic("rng: Dirichlet with non-positive alpha")
	}
	sum := 0.0
	for i := range out {
		out[i] = r.Gamma(alpha, 1)
		sum += out[i]
	}
	if sum == 0 {
		// Pathologically tiny α can underflow every gamma draw; fall back to
		// a single random vertex of the simplex, which is the α→0 limit.
		for i := range out {
			out[i] = 0
		}
		out[r.Intn(len(out))] = 1
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
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

// Shuffle shuffles the first n indices using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	// Partial Fisher–Yates over an index table; O(n) memory, O(n+k) time.
	p := r.Perm(n)
	return p[:k]
}
