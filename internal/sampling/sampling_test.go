package sampling

import (
	"testing"
	"testing/quick"

	"jessica2/internal/heap"
)

func TestIsPrime(t *testing.T) {
	primes := []int64{2, 3, 5, 7, 11, 13, 31, 67, 127, 509, 1021}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("%d should be prime", p)
		}
	}
	composites := []int64{-7, 0, 1, 4, 6, 9, 32, 64, 128, 1024}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("%d should not be prime", c)
		}
	}
}

// TestNearestPrimePaperExamples checks the paper's exact examples:
// "31, 67 and 127 would be chosen as the real sampling gaps for nominal
// sampling gaps of 32, 64 and 128".
func TestNearestPrimePaperExamples(t *testing.T) {
	cases := map[int64]int64{32: 31, 64: 67, 128: 127}
	for nominal, want := range cases {
		if got := NearestPrime(nominal); got != want {
			t.Errorf("NearestPrime(%d) = %d, want %d", nominal, got, want)
		}
	}
}

// Property: NearestPrime returns a prime no farther than any other prime.
func TestQuickNearestPrime(t *testing.T) {
	f := func(n uint16) bool {
		v := int64(n%5000) + 2
		p := NearestPrime(v)
		if !IsPrime(p) {
			return false
		}
		d := p - v
		if d < 0 {
			d = -d
		}
		// No prime strictly closer.
		for q := v - d + 1; q < v+d; q++ {
			if q >= 2 && IsPrime(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGapsForRate(t *testing.T) {
	// 8-byte elements at 1X: nominal 512, real = nearest prime.
	nom, real := GapsForRate(8, 1)
	if nom != 512 {
		t.Fatalf("nominal = %d, want 512", nom)
	}
	if !IsPrime(real) {
		t.Fatalf("real gap %d not prime", real)
	}
	// 512-byte objects at 16X: 512*16 = 8192 > page: full sampling.
	nom, real = GapsForRate(512, 16)
	if nom != 1 || real != 1 {
		t.Fatalf("saturated rate should give gap 1, got %d/%d", nom, real)
	}
	// FullRate always 1.
	if _, r := GapsForRate(8, FullRate); r != 1 {
		t.Fatal("FullRate must give gap 1")
	}
	// Off gives 0.
	if _, r := GapsForRate(8, 0); r != 0 {
		t.Fatal("rate 0 must disable")
	}
}

func TestGapsForRateBadUnit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive unit did not panic")
		}
	}()
	GapsForRate(0, 1)
}

func TestApplyRate(t *testing.T) {
	reg := heap.NewRegistry()
	body := reg.DefineClass("Body", 56, 0)
	mol := reg.DefineClass("Mol", 512, 0)
	ApplyRate(body, 4)
	ApplyRate(mol, 4)
	// Body at 4X: nominal 4096/(56*4) = 18 -> prime near 18.
	if body.Gap() < 2 {
		t.Fatalf("body gap = %d, want > 1", body.Gap())
	}
	if !IsPrime(body.Gap()) {
		t.Fatalf("body gap %d not prime", body.Gap())
	}
	// Mol at 4X: 4096/2048 = 2 -> prime 2.
	if mol.Gap() != 2 {
		t.Fatalf("mol gap = %d, want 2", mol.Gap())
	}
	// Saturation: Mol at 16X is full sampling (8 objects of 512B per 4KB
	// page already sample every object).
	ApplyRate(mol, 16)
	if mol.Gap() != 1 {
		t.Fatalf("mol at 16X should be full, gap = %d", mol.Gap())
	}
}

func TestSweepRates(t *testing.T) {
	rates := SweepRates(512)
	want := []Rate{512, 256, 128, 64, 32, 16, 8, 4, 2, 1}
	if len(rates) != len(want) {
		t.Fatalf("rates = %v", rates)
	}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
}

func TestRateString(t *testing.T) {
	if FullRate.String() != "full" || Rate(0).String() != "off" || Rate(4).String() != "4X" {
		t.Fatal("rate formatting wrong")
	}
}

func TestPlanApplyCountsResampled(t *testing.T) {
	reg := heap.NewRegistry()
	a := reg.DefineClass("A", 64, 0)
	for i := 0; i < 10; i++ {
		reg.Alloc(a, 0)
	}
	p := Uniform(reg, 4)
	n := p.Apply(reg)
	if n != 10 {
		t.Fatalf("resampled %d, want 10 (gap changed)", n)
	}
	// Applying the same plan again changes nothing.
	if n := p.Apply(reg); n != 0 {
		t.Fatalf("idempotent apply resampled %d", n)
	}
	// Unknown classes are ignored.
	p2 := Plan{"nope": 2}
	if n := p2.Apply(reg); n != 0 {
		t.Fatal("unknown class should be skipped")
	}
}

func TestControllerRaisesUntilConverged(t *testing.T) {
	c := NewController(0.05, 1, 64)
	if c.Rate() != 1 || c.Converged() {
		t.Fatal("bad initial state")
	}
	// Large distances keep raising.
	r, conv := c.Observe(1.0)
	if r != 2 || conv {
		t.Fatalf("step 1: rate %v conv %v", r, conv)
	}
	r, _ = c.Observe(0.5)
	if r != 4 {
		t.Fatalf("step 2: rate %v", r)
	}
	// Converges under threshold.
	r, conv = c.Observe(0.01)
	if !conv || r != 4 {
		t.Fatalf("should converge at rate 4, got %v conv=%v", r, conv)
	}
	// Further observations are no-ops.
	r, conv = c.Observe(1.0)
	if !conv || r != 4 {
		t.Fatal("converged controller must not move")
	}
}

func TestControllerSaturates(t *testing.T) {
	c := NewController(0.001, 1, 4)
	c.Observe(1)
	if r, conv := c.Observe(1); r != 4 || conv {
		t.Fatalf("second raise: rate %v conv %v, want 4X and still searching", r, conv)
	}
	// At the max rate a distance above the threshold saturates: the rate
	// stays and the search stops.
	if r, conv := c.Observe(1); r != 4 || !conv {
		t.Fatalf("at max rate: rate %v conv %v, want saturated at 4X", r, conv)
	}
}

// TestControllerFirstObservation: a fresh controller has never compared two
// correlation maps, so the very first Observe must not declare convergence —
// not for a generous Threshold >= 1 with the documented distance = 1
// bootstrap call, and not for an arbitrarily small first distance. It raises
// instead (regression: the pre-fix controller stopped the ladder at Start).
func TestControllerFirstObservation(t *testing.T) {
	// Threshold >= 1 swallows the documented distance = 1 bootstrap call.
	c := NewController(1.0, 1, 64)
	r, conv := c.Observe(1.0)
	if conv {
		t.Fatal("fresh controller converged on its bootstrap observation")
	}
	if r != 2 {
		t.Fatalf("first observation should raise 1X -> 2X, got %v", r)
	}
	// A tiny first distance is equally meaningless: nothing was compared.
	c = NewController(0.05, 1, 64)
	if _, conv := c.Observe(0.0); conv {
		t.Fatal("fresh controller converged on a zero first distance")
	}
	// The second observation is a real comparison and may converge.
	if _, conv := c.Observe(0.01); !conv {
		t.Fatal("second observation under threshold should converge")
	}
	if c.Rate() != 2 {
		t.Fatalf("converged rate = %v, want 2", c.Rate())
	}
}

// TestControllerFirstObservationSaturates: a single-rung ladder
// (Start == Max) cannot raise, so the bootstrap observation legitimately
// saturates rather than spinning forever.
func TestControllerFirstObservationSaturates(t *testing.T) {
	c := NewController(0.001, 8, 8)
	if r, conv := c.Observe(1); !conv || r != 8 {
		t.Fatalf("single-rung ladder should saturate immediately at 8X: rate %v conv %v", r, conv)
	}
}

func TestControllerDefaults(t *testing.T) {
	c := NewController(0.05, 0, 0)
	if c.Rate() != 1 {
		t.Fatal("start clamps to 1")
	}
	if c.Max != MaxRate {
		t.Fatal("max defaults to MaxRate")
	}
}

// Property: the controller's rate ladder is monotone non-decreasing and
// bounded by Max.
func TestQuickControllerMonotone(t *testing.T) {
	f := func(dists []float64) bool {
		c := NewController(0.05, 1, 256)
		last := c.Rate()
		for _, d := range dists {
			if d < 0 {
				d = -d
			}
			r, _ := c.Observe(d)
			if r < last || r > 256 {
				return false
			}
			last = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepRatesNormalization: non-power-of-two starts normalize down to a
// power of two instead of producing odd half-rates, FullRate starts the
// ladder at MaxRate, and sub-1X starts yield an empty ladder.
func TestSweepRatesNormalization(t *testing.T) {
	cases := []struct {
		from Rate
		want []Rate
	}{
		{100, []Rate{64, 32, 16, 8, 4, 2, 1}},
		{33, []Rate{32, 16, 8, 4, 2, 1}},
		{3, []Rate{2, 1}},
		{1, []Rate{1}},
		{0, nil},
		{FullRate, SweepRates(MaxRate)},
	}
	for _, c := range cases {
		got := SweepRates(c.from)
		if len(got) != len(c.want) {
			t.Fatalf("SweepRates(%d) = %v, want %v", c.from, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("SweepRates(%d) = %v, want %v", c.from, got, c.want)
			}
		}
	}
}

// TestPlanApplyResampleCount: Apply reports exactly the live-object count of
// every class whose real gap changed — the seed semantics the slice-backed
// per-class counters must preserve.
func TestPlanApplyResampleCount(t *testing.T) {
	reg := heap.NewRegistry()
	small := reg.DefineClass("small", 8, 0)
	big := reg.DefineClass("big", 4096, 0)
	arr := reg.DefineArrayClass("arr", 8)
	for i := 0; i < 30; i++ {
		reg.Alloc(small, i%3)
	}
	for i := 0; i < 20; i++ {
		reg.Alloc(big, i%3)
	}
	for i := 0; i < 10; i++ {
		reg.AllocArray(arr, 4, i%3)
	}

	// From the default gap 1: "small" at 4X gets a real gap > 1 (128 B
	// nominal unit → gap 127), "big" saturates at gap 1 (no change), "arr"
	// at 4X gets a prime gap from its 8 B elements.
	p := Plan{"small": 4, "big": 4, "arr": 4}
	got := p.Apply(reg)
	want := 0
	if g := small.Gap(); g != 1 {
		want += 30
	}
	if g := big.Gap(); g != 1 {
		want += 20
	}
	if g := arr.Gap(); g != 1 {
		want += 10
	}
	if got != want {
		t.Fatalf("resampled = %d, want %d (small gap %d, big gap %d, arr gap %d)",
			got, want, small.Gap(), big.Gap(), arr.Gap())
	}
	if want == 0 {
		t.Fatal("test vacuous: no class changed gap")
	}

	// Re-applying the identical plan changes no gap: zero resamples.
	if again := p.Apply(reg); again != 0 {
		t.Fatalf("idempotent re-apply resampled %d objects", again)
	}
}
