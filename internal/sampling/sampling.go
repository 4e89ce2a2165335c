// Package sampling implements the paper's adaptive object sampling scheme:
// class-level sampling gaps derived from page-relative "nX" rates, real gaps
// snapped to prime numbers to defeat cyclic allocation patterns, and the
// adaptive controller that walks the rate up until successive correlation
// maps converge.
package sampling

import (
	"fmt"
	"sort"

	"jessica2/internal/heap"
)

// Rate is the paper's nX notation: "sampling n objects per memory page".
// Rate(0) means sampling disabled; FullRate means every object sampled.
type Rate int

// FullRate is the sentinel for full (exhaustive) sampling.
const FullRate Rate = -1

func (r Rate) String() string {
	switch {
	case r == FullRate:
		return "full"
	case r <= 0:
		return "off"
	default:
		return fmt.Sprintf("%dX", int(r))
	}
}

// MaxRate is the largest meaningful rate: one sample per word, i.e. full
// sampling even for the smallest possible object (the paper's 1024X for a
// 4 KB page and 4-byte words).
const MaxRate = Rate(heap.PageSize / heap.WordSize)

// SweepRates returns the power-of-two rate ladder from `from` down to 1X,
// as used in the Fig. 9 accuracy sweep (512X, 256X, ..., 1X).
//
// The ladder is defined on powers of two only, so a non-power-of-two
// starting rate is normalized down to the largest power of two not
// exceeding it (100X → 64X, 33X → 32X) rather than silently producing odd
// half-rates like 50X/25X/12X. FullRate starts the ladder at MaxRate;
// rates below 1X yield an empty ladder.
func SweepRates(from Rate) []Rate {
	if from == FullRate {
		from = MaxRate
	}
	if from < 1 {
		return nil
	}
	start := Rate(1)
	for start*2 <= from {
		start *= 2
	}
	out := make([]Rate, 0, 16)
	for r := start; r >= 1; r /= 2 {
		out = append(out, r)
	}
	return out
}

// IsPrime reports primality by trial division (gaps are small).
func IsPrime(n int64) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := int64(3); d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// NearestPrime returns the prime closest to n, breaking ties upward. This
// reproduces the paper's examples: 32→31, 64→67, 128→127.
func NearestPrime(n int64) int64 {
	if n <= 2 {
		return 2
	}
	for d := int64(0); ; d++ {
		if IsPrime(n + d) { // tie broken upward: check above first
			return n + d
		}
		if n-d >= 2 && IsPrime(n-d) {
			return n - d
		}
	}
}

// GapsForRate converts a rate into (nominal, real) gaps for a class whose
// sampled unit has the given size in bytes (instance size for scalar
// classes, element size for arrays). The nominal gap is SP/(s×n) per the
// paper; when it collapses to 1 the class is effectively fully sampled.
func GapsForRate(unitBytes int, r Rate) (nominal, real int64) {
	if unitBytes <= 0 {
		panic("sampling: non-positive unit size")
	}
	switch {
	case r == FullRate:
		return 1, 1
	case r <= 0:
		return 0, 0
	}
	nominal = int64(heap.PageSize) / (int64(unitBytes) * int64(r))
	if nominal <= 1 {
		return 1, 1
	}
	return nominal, NearestPrime(nominal)
}

// unitBytes returns the sampling unit for a class.
func unitBytes(c *heap.Class) int {
	if c.IsArray {
		return c.ElemSize
	}
	return c.Size
}

// ApplyRate sets the class's real gap for the given rate and returns it.
func ApplyRate(c *heap.Class, r Rate) int64 {
	_, real := GapsForRate(unitBytes(c), r)
	c.SetGap(real)
	return real
}

// Plan maps class names to rates; it is what the master broadcasts when the
// controller changes rates ("change notice for a specific class").
type Plan map[string]Rate

// Uniform builds a plan applying one rate to every class in the registry.
func Uniform(reg *heap.Registry, r Rate) Plan {
	p := make(Plan)
	for _, name := range reg.ClassNames() {
		p[name] = r
	}
	return p
}

// Apply installs the plan into the registry's classes and returns the
// number of live objects whose sampled tag had to be re-evaluated
// (the paper's resampling pass; its CPU cost is charged by the caller).
func (p Plan) Apply(reg *heap.Registry) int {
	resampled := 0
	// Deterministic order.
	names := make([]string, 0, len(p))
	for n := range p {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		c := reg.Class(name)
		if c == nil {
			continue
		}
		old := c.Gap()
		ApplyRate(c, p[name])
		if c.Gap() != old {
			resampled += reg.NumObjectsOfClass(c)
		}
	}
	return resampled
}

// Controller implements the paper's adaptive rate search: "begin with a
// rough sampling rate, increase it stepwise (by shortening the sampling
// gap) and compare the distance between the successive correlation
// matrices. If their distance is small enough ... we stop at the underlying
// sampling gap." Distances are computed by the caller (package tcm) and fed
// into Observe.
type Controller struct {
	// Threshold is the convergence bound on the relative distance between
	// successive correlation maps (e.g. 0.05 for 95% relative accuracy).
	Threshold float64
	// Start and Max bound the rate ladder.
	Start, Max Rate

	rate      Rate
	converged bool
	// compared records whether a previous Observe produced a map to diff
	// against. Until then a small distance is meaningless (there were
	// never two maps) and must not stop the ladder.
	compared bool
}

// NewController returns a controller starting at start and capped at max.
func NewController(threshold float64, start, max Rate) *Controller {
	if start < 1 {
		start = 1
	}
	if max == 0 {
		max = MaxRate
	}
	return &Controller{Threshold: threshold, Start: start, Max: max, rate: start}
}

// Rate returns the currently active rate.
func (a *Controller) Rate() Rate { return a.rate }

// Converged reports whether the search has stopped.
func (a *Controller) Converged() bool { return a.converged }

// Observe feeds the relative distance between the map at the current rate
// and the map at the previous (coarser) rate. It returns the next rate to
// run at and whether the controller has converged. The first observation
// for a fresh controller always raises (there is nothing to compare yet,
// so the distance argument is ignored for convergence purposes) unless the
// ladder has a single rung, in which case it saturates. Callers typically
// pass distance = 1 for the bootstrap observation.
func (a *Controller) Observe(distance float64) (next Rate, converged bool) {
	if a.converged {
		return a.rate, true
	}
	switch {
	case a.compared && distance <= a.Threshold:
		a.converged = true
	case a.rate >= a.Max || a.rate == FullRate:
		a.converged = true
	default:
		a.rate *= 2
		if a.rate > a.Max {
			a.rate = a.Max
		}
	}
	// After any observation a map exists for the next one to diff against.
	a.compared = true
	return a.rate, a.converged
}
