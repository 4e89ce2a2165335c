// Package xrand provides a small deterministic pseudo-random stream
// (SplitMix64) used throughout the simulator. Every component that needs
// randomness derives its own stream from a seed, so runs are reproducible
// regardless of goroutine interleaving or map iteration order.
package xrand

import "math"

// Rand is a SplitMix64 generator. The zero value is a valid generator with
// seed 0; prefer New to mix the seed first.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	r := &Rand{state: seed}
	// Warm up so nearby seeds diverge immediately.
	r.Uint64()
	return r
}

// Derive returns a new independent generator labelled by id. Streams derived
// with distinct ids from the same parent are statistically independent.
func (r *Rand) Derive(id uint64) *Rand {
	return New(r.state ^ (id*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Zipf returns a Zipf(s, n)-distributed rank in [0, n) using rejection
// inversion. s must be > 1 for a proper distribution; values near 1 give
// heavy skew typical of hot-object access patterns.
type Zipf struct {
	r    *Rand
	n    int
	s    float64
	hx0  float64
	hxm  float64
	dist float64
}

// NewZipf builds a Zipf sampler over ranks [0, n).
func NewZipf(r *Rand, s float64, n int) *Zipf {
	z := &Zipf{r: r, n: n, s: s}
	z.hx0 = z.h(0.5)
	z.hxm = z.h(float64(n) + 0.5)
	z.dist = z.hx0 - z.hxm
	return z
}

func (z *Zipf) h(x float64) float64 {
	if z.s == 1 {
		return math.Log(x)
	}
	return math.Pow(x, 1-z.s) / (1 - z.s)
}

func (z *Zipf) hinv(x float64) float64 {
	if z.s == 1 {
		return math.Exp(x)
	}
	return math.Pow(x*(1-z.s), 1/(1-z.s))
}

// Rank draws one sample.
func (z *Zipf) Rank() int {
	for {
		u := z.hx0 - z.r.Float64()*z.dist
		x := z.hinv(u)
		k := int(x + 0.5)
		if k < 1 {
			k = 1
		}
		if k > z.n {
			k = z.n
		}
		// Accept with probability proportional to true mass; the simple
		// clamp above is adequate for workload generation purposes.
		if z.r.Float64() < math.Pow(float64(k), -z.s)/math.Pow(x, -z.s) {
			return k - 1
		}
	}
}
