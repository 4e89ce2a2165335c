package sampling

import (
	"testing"

	"jessica2/internal/xrand"
)

// isPow2 reports whether r is a positive power of two.
func isPow2(r Rate) bool { return r > 0 && r&(r-1) == 0 }

// TestSweepRatesProperties checks the ladder over every possible starting
// rate, including all the non-power-of-two ones: strictly halving, all
// powers of two, bottoming out at 1X, and the normalized start being the
// largest power of two not exceeding the request.
func TestSweepRatesProperties(t *testing.T) {
	for from := Rate(1); from <= MaxRate; from++ {
		rates := SweepRates(from)
		if len(rates) == 0 {
			t.Fatalf("SweepRates(%v) empty", from)
		}
		if first := rates[0]; !isPow2(first) || first > from || 2*first <= from {
			t.Fatalf("SweepRates(%v) starts at %v, want largest power of two <= start", from, first)
		}
		if rates[len(rates)-1] != 1 {
			t.Fatalf("SweepRates(%v) does not end at 1X: %v", from, rates)
		}
		for i, r := range rates {
			if !isPow2(r) {
				t.Fatalf("SweepRates(%v)[%d] = %v not a power of two", from, i, r)
			}
			if i > 0 && rates[i-1] != 2*r {
				t.Fatalf("SweepRates(%v) not strictly halving at %d: %v", from, i, rates)
			}
		}
	}
	// Sentinels.
	if got := SweepRates(FullRate); got[0] != MaxRate {
		t.Errorf("SweepRates(FullRate) starts at %v, want MaxRate", got[0])
	}
	if got := SweepRates(0); got != nil {
		t.Errorf("SweepRates(0) = %v, want nil", got)
	}
}

// TestControllerNeverLeavesBounds drives controllers with random bounds
// through random distance sequences and asserts the rate always stays in
// [Start, Max] and freezes once converged.
func TestControllerNeverLeavesBounds(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 500; trial++ {
		start := Rate(1 + rng.Intn(int(MaxRate)))
		max := start + Rate(rng.Intn(int(MaxRate-start)+1))
		threshold := 0.01 + rng.Float64()*0.4
		c := NewController(threshold, start, max)
		var frozen Rate
		for step := 0; step < 40; step++ {
			d := rng.Float64() * 2 // distances in [0, 2)
			wasConverged := c.Converged()
			next, converged := c.Observe(d)
			if next < start || next > max {
				t.Fatalf("trial %d: rate %v left [%v, %v]", trial, next, start, max)
			}
			if wasConverged {
				if next != frozen || !converged {
					t.Fatalf("trial %d: converged controller moved %v -> %v", trial, frozen, next)
				}
			}
			if converged && frozen == 0 {
				frozen = next
			}
		}
		// The ladder doubles: a controller fed only distances above the
		// threshold must saturate at Max within log2(Max/Start)+1 steps.
		c2 := NewController(0.001, start, max)
		steps := 0
		for !c2.Converged() {
			c2.Observe(1)
			steps++
			if steps > 14 {
				t.Fatalf("trial %d: controller failed to terminate (start %v max %v)", trial, start, max)
			}
		}
		if c2.Rate() != max {
			t.Fatalf("trial %d: saturated at %v, want max %v", trial, c2.Rate(), max)
		}
	}
}

// densityModel is a synthetic profile: the relative distance between the
// maps at successive rates falls off inversely with rate x event density
// (finer sampling of a denser stream stabilizes the map faster), floored
// at a structural residue.
func densityModel(r Rate, density, residue float64) float64 {
	d := 4/(float64(r)*density) + residue
	if d > 2 {
		d = 2
	}
	return d
}

// TestControllerConvergesUnderStepChange simulates the adaptive loop on the
// synthetic density model with a step change in event density mid-search
// (the scenario engine's phase shift, abstracted): the controller must
// still converge, at a rate bounded by the post-step density, with its
// final observed distance under the threshold unless it saturated.
func TestControllerConvergesUnderStepChange(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		threshold := 0.05 + rng.Float64()*0.15
		residue := rng.Float64() * threshold * 0.5
		density := 0.5 + rng.Float64()*4
		stepAt := 1 + rng.Intn(6)
		// The step change: density drops (phase shift to a sparser hot
		// set) or rises, by up to 8x either way.
		factor := 0.125 + rng.Float64()*8
		c := NewController(threshold, 1, MaxRate)

		steps := 0
		var lastDist float64
		var lastRaised bool
		for !c.Converged() {
			if steps == stepAt {
				density *= factor
			}
			from := c.Rate()
			lastDist = densityModel(from, density, residue)
			next, _ := c.Observe(lastDist)
			lastRaised = next != from
			steps++
			if steps > 30 {
				t.Fatalf("trial %d: no convergence after %d observations", trial, steps)
			}
		}
		final := c.Rate()
		if final < 1 || final > MaxRate {
			t.Fatalf("trial %d: final rate %v out of bounds", trial, final)
		}
		if lastRaised {
			t.Fatalf("trial %d: the converging observation raised the rate to %v", trial, final)
		}
		// The last observation stopped the ladder: it converged, so its
		// distance is under the threshold, or it saturated at MaxRate.
		if final != MaxRate && lastDist > threshold {
			t.Fatalf("trial %d: claimed convergence at distance %g > threshold %g", trial, lastDist, threshold)
		}
		// Convergence must be genuine under the post-step model: the
		// distance at the final rate is under threshold, or the ladder is
		// exhausted.
		if final != MaxRate && densityModel(final, density, residue) > threshold+1e-9 {
			t.Fatalf("trial %d: converged at %v where model distance %g > threshold %g",
				trial, final, densityModel(final, density, residue), threshold)
		}
	}
}

// TestGapsForRateBounds: gaps are positive, real gaps prime, and the
// gap shrinks (sampling densifies) monotonically as the rate rises.
func TestGapsForRateBounds(t *testing.T) {
	for unit := 1; unit <= 512; unit *= 2 {
		prevNom := int64(1 << 62)
		for r := Rate(1); r <= MaxRate; r *= 2 {
			nom, real := GapsForRate(unit, r)
			if nom <= 0 || real <= 0 {
				t.Fatalf("unit %d rate %v: non-positive gap (%d, %d)", unit, r, nom, real)
			}
			if real != 1 && !IsPrime(real) {
				t.Fatalf("unit %d rate %v: real gap %d not prime", unit, r, real)
			}
			if nom > prevNom {
				t.Fatalf("unit %d rate %v: nominal gap grew %d -> %d", unit, r, prevNom, nom)
			}
			prevNom = nom
		}
	}
}
