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
	// The bounds path (see Rank) runs only when fast is set. inv is
	// 1/(1-s), the exponent of hinv; floor and frac are the integer and
	// fractional parts of s.
	fast  bool
	inv   float64
	floor int
	frac  float64
}

// zipfMargin is the relative distance from a decision boundary inside
// which a Rank iteration falls back to the exact powers.
const zipfMargin = 1e-9

// NewZipf builds a Zipf sampler over ranks [0, n).
func NewZipf(r *Rand, s float64, n int) *Zipf {
	z := &Zipf{r: r, n: n, s: s}
	z.hx0 = z.h(0.5)
	z.hxm = z.h(float64(n) + 0.5)
	z.dist = z.hx0 - z.hxm
	// Rank's error argument needs 1/(s-1) <= 1e4, which keeps the exact
	// hinv within 3e-12 of the true power, and s <= 16, which keeps every
	// k^s of an int rank a normal float64.
	if s >= 1.0001 && s <= 16 {
		z.fast = true
		z.inv = 1 / (1 - s)
		z.floor = int(s)
		z.frac = s - float64(z.floor)
	}
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
//
// Each iteration draws u and f and makes two decisions: the rank k =
// int(x+0.5) clamped to [1, n], with x = hinv(u), and acceptance,
// f < k^-s / x^-s. exact makes both with three math.Pow calls; iterate
// makes them from cheaper values that provably agree with exact's, so
// every rank is bit-identical to the exact loop's. The argument, for
// 1.0001 <= s <= 16 (NewZipf's fast):
//
//   - iterate's x' = Exp(Log(u(1-s))·inv) is within 2e-14 of the true
//     power: Log and Exp are each within about an ulp (Go's math tests
//     hold Exp to 4e-16), and |ln x| <= 44 for any int n. exact's
//     Pow(u(1-s), inv) multiplies out the integer part of inv by repeated
//     squaring, each squaring doubling the error so far: about
//     2|inv|·2^-53 <= 3e-12 for |inv| <= 1e4. So x' and exact's x differ
//     by under 3e-12 relative, their s-th powers by under 5e-11, and
//     exact's other two Pow calls (exponent -s) add 1e-14 each.
//   - Every decision whose boundary lies further than zipfMargin = 1e-9
//     relative from iterate's value therefore comes out the same in
//     exact; iterate hands every iteration near a boundary to exact. The
//     boundaries are x at a half-integer (the rank), x at k (from there on
//     x >= k, the ratio (x/k)^s is at least 1 > f, and exact accepts)
//     and f at the ratio.
//   - For x < k, r = x/k < 1 and φ = s - ⌊s⌋ bracket the ratio r^s =
//     r^⌊s⌋·r^φ by r^⌊s⌋·r/(r+φ(1-r)) <= r^s <= r^⌊s⌋·(1-φ(1-r)).
//     Both sides are Bernoulli's inequality, (1+t)^a <= 1+at for a in
//     [0, 1] and t >= -1: on r^φ for the high side, and on r^(1-φ) =
//     r/r^φ for the low side. They meet at a whole s and stay within
//     φ(1-φ)(1-r)^2/r of each other, so only f within that of the ratio
//     is left undecided. x >= k - 1/2 (less the estimate's error) makes
//     r >= 1/2 and keeps 1-φ(1-r) and r+φ(1-r) at or above 1/2, so each
//     side is a few multiplies within 2e-15. f below the low side (less
//     the margin) accepts; f at or above the high side (plus it) rejects.
//
// Outside 1.0001 <= s <= 16, every iteration runs exact.
func (z *Zipf) Rank() int {
	for {
		u := z.hx0 - z.r.Float64()*z.dist
		f := z.r.Float64()
		if k, ok := z.iterate(u, f); ok {
			return k - 1
		}
	}
}

// iterate runs one rejection-inversion iteration on the draws u and f and
// returns its rank k in [1, n] and whether the iteration accepts it.
func (z *Zipf) iterate(u, f float64) (int, bool) {
	if !z.fast {
		return z.exact(u, f)
	}
	x := math.Exp(math.Log(u*(1-z.s)) * z.inv)
	t := x + 0.5
	k := int(t)
	if d := t - float64(k); d < zipfMargin*x || 1-d < zipfMargin*x {
		return z.exact(u, f) // x near a half-integer: k is in doubt
	}
	k = min(max(k, 1), z.n)
	kf := float64(k)
	if x >= kf*(1+zipfMargin) {
		return k, true
	}
	if x > kf*(1-zipfMargin) {
		return z.exact(u, f)
	}
	r := x / kf
	p := r // r^⌊s⌋
	for i := 1; i < z.floor; i++ {
		p *= r
	}
	g := z.frac * (1 - r)
	// f < p·r/(r+g), with the division multiplied out.
	if f*(r+g) < p*r*(1-zipfMargin) {
		return k, true
	}
	if f >= p*(1-g)*(1+zipfMargin) {
		return k, false
	}
	return z.exact(u, f)
}

// exact is iterate with the powers computed in full.
func (z *Zipf) exact(u, f float64) (int, bool) {
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
	return k, f < math.Pow(float64(k), -z.s)/math.Pow(x, -z.s)
}
