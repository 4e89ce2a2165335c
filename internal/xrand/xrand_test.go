package xrand

import (
	"fmt"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between adjacent seeds", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Derive(1)
	b := parent.Derive(2)
	if a.Uint64() == b.Uint64() {
		t.Fatal("derived streams collide immediately")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestZipfRanksInRange(t *testing.T) {
	r := New(17)
	z := NewZipf(r, 1.2, 100)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		k := z.Rank()
		if k < 0 || k >= 100 {
			t.Fatalf("rank out of range: %d", k)
		}
		counts[k]++
	}
	// Head must be hotter than tail.
	head := counts[0] + counts[1] + counts[2]
	tail := counts[97] + counts[98] + counts[99]
	if head <= tail {
		t.Fatalf("zipf not skewed: head %d tail %d", head, tail)
	}
}

// referenceRank is Rank as it stood before the bounds path: three
// math.Pow calls on every iteration. Rank must return the same rank for
// the same stream.
func referenceRank(z *Zipf) int {
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

// referenceIteration is one iteration of referenceRank on given draws.
func referenceIteration(z *Zipf, u, f float64) (int, bool) {
	x := z.hinv(u)
	k := int(x + 0.5)
	if k < 1 {
		k = 1
	}
	if k > z.n {
		k = z.n
	}
	return k, f < math.Pow(float64(k), -z.s)/math.Pow(x, -z.s)
}

// zipfWorkloadParams are the (s, n) pairs the workloads draw from:
// ServeMix's tenants, KVMix's keys at the bench's and the default size,
// and Synthetic's zipf targets over 256 objects x 8 threads.
var zipfWorkloadParams = []struct {
	s float64
	n int
}{{1.2, 256}, {1.1, 2048}, {1.1, 4096}, {1.2, 256 * 8}}

// zipfStreamsMatch draws count ranks from Rank and from referenceRank on
// two generators with the same seed and reports the first disagreement.
func zipfStreamsMatch(t *testing.T, seed uint64, s float64, n, count int) {
	t.Helper()
	got, want := NewZipf(New(seed), s, n), NewZipf(New(seed), s, n)
	for i := 0; i < count; i++ {
		if g, w := got.Rank(), referenceRank(want); g != w {
			t.Fatalf("s=%v n=%d seed %d: draw %d is rank %d, reference %d", s, n, seed, i, g, w)
		}
	}
}

func TestZipfMatchesReference(t *testing.T) {
	const draws = 200_000
	for _, p := range zipfWorkloadParams {
		for seed := uint64(1); seed <= 20; seed++ {
			zipfStreamsMatch(t, seed, p.s, p.n, draws)
		}
	}
	for _, s := range []float64{1.01, 1.5, 2, 3.5} {
		for _, n := range []int{1, 2, 10, 100_000} {
			for seed := uint64(1); seed <= 20; seed++ {
				zipfStreamsMatch(t, seed, s, n, draws/10)
			}
		}
	}
}

// TestZipfBoundaryIterations feeds single iterations draws that put x, or
// f, within 1e-12 of a decision boundary, where the bounds path must defer
// to the exact powers, and a little further out, where it decides alone.
func TestZipfBoundaryIterations(t *testing.T) {
	offsets := []float64{0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-10, -1e-10, 3e-9, -3e-9, 1e-6, -1e-6}
	check := func(z *Zipf, what string, u, f float64) {
		t.Helper()
		gk, ga := z.iterate(u, f)
		wk, wa := referenceIteration(z, u, f)
		if gk != wk || ga != wa {
			t.Errorf("s=%v n=%d %s: u=%v f=%v gives (%d, %v), reference (%d, %v)",
				z.s, z.n, what, u, f, gk, ga, wk, wa)
		}
	}
	for _, s := range []float64{1.1, 1.2, 2, 3.5} {
		for _, n := range []int{10, 256, 2048} {
			z := NewZipf(New(1), s, n)
			if !z.fast {
				t.Fatalf("s=%v n=%d: bounds path off", s, n)
			}
			for _, k := range []int{1, 2, 3, 7, n / 2, n} {
				for _, d := range offsets {
					// x at the half-integers around k, and at k itself.
					for _, x := range []float64{float64(k) - 0.5, float64(k) + 0.5, float64(k)} {
						u := z.h(x * (1 + d))
						for ulps := -2; ulps <= 2; ulps++ {
							uu := u
							for i := 0; i < ulps; i++ {
								uu = math.Nextafter(uu, math.Inf(1))
							}
							for i := 0; i > ulps; i-- {
								uu = math.Nextafter(uu, math.Inf(-1))
							}
							for _, f := range []float64{1e-3, 0.5, math.Nextafter(1, 0)} {
								check(z, "x at boundary", uu, f)
							}
						}
					}
					// f at the acceptance ratio for an x inside k's interval.
					for _, frac := range []float64{-0.4, -0.25, -0.1, -1e-6} {
						u := z.h(float64(k) + frac)
						x := z.hinv(u)
						kk, _ := referenceIteration(z, u, 0)
						ratio := math.Pow(float64(kk), -z.s) / math.Pow(x, -z.s)
						f := ratio * (1 + d)
						for _, ff := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, 1)} {
							if ff >= 0 && ff < 1 {
								check(z, "f at ratio", u, ff)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzZipfMatchesReference checks Rank against referenceRank for any seed
// and any s and n the reference draws from in reasonable time. Its corpus
// holds the workloads' parameter sets (zipfWorkloadParams) at seed 42.
func FuzzZipfMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, s float64, n int) {
		if !(s >= 0.5 && s <= 16) || n < 1 || n > 1<<20 {
			t.Skip()
		}
		zipfStreamsMatch(t, seed, s, n, 256)
	})
}

var zipfSink int

func BenchmarkZipfRank(b *testing.B) {
	for _, p := range []struct {
		s float64
		n int
	}{{1.2, 256}, {1.1, 2048}} {
		b.Run(fmt.Sprintf("s=%v/n=%d/reference", p.s, p.n), func(b *testing.B) {
			z := NewZipf(New(42), p.s, p.n)
			for i := 0; i < b.N; i++ {
				zipfSink += referenceRank(z)
			}
		})
		b.Run(fmt.Sprintf("s=%v/n=%d/rank", p.s, p.n), func(b *testing.B) {
			z := NewZipf(New(42), p.s, p.n)
			for i := 0; i < b.N; i++ {
				zipfSink += z.Rank()
			}
		})
	}
}
