package scenario

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"jessica2/internal/sim"
)

func arrivalSpecs() map[string]*Arrivals {
	return map[string]*Arrivals{
		"poisson": {Kind: ArrivePoisson, Rate: 5000, Horizon: 4 * sim.Second},
		"diurnal": {Kind: ArriveDiurnal, Rate: 8000, Horizon: 4 * sim.Second,
			Period: sim.Second, Trough: 0.25},
		"burst": {Kind: ArriveBurst, Rate: 3000, Horizon: 4 * sim.Second,
			BurstEvery: 500 * sim.Millisecond, BurstLen: 100 * sim.Millisecond, BurstFactor: 5},
	}
}

// Property: same (spec, seed) => byte-identical schedule; a different seed
// => a different stream.
func TestArrivalsSeedDeterministic(t *testing.T) {
	for name, a := range arrivalSpecs() {
		s1 := a.Schedule(42)
		s2 := a.Schedule(42)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("%s: same seed produced different schedules", name)
		}
		if reflect.DeepEqual(s1, a.Schedule(43)) {
			t.Fatalf("%s: different seeds produced identical schedules", name)
		}
	}
}

// Property: schedules are sorted ascending and bounded by the horizon.
func TestArrivalsSortedWithinHorizon(t *testing.T) {
	for name, a := range arrivalSpecs() {
		s := a.Schedule(1)
		if len(s) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
			t.Fatalf("%s: schedule not sorted", name)
		}
		if s[0] < 0 || s[len(s)-1] >= a.Horizon {
			t.Fatalf("%s: arrivals outside [0, %v): first %v last %v", name, a.Horizon, s[0], s[len(s)-1])
		}
	}
}

// expectedCount integrates the spec's rate function over the horizon.
func expectedCount(a *Arrivals) float64 {
	const step = 10 * sim.Microsecond
	var sum float64
	for t := sim.Time(0); t < a.Horizon; t += step {
		sum += a.rateAt(t) * float64(step) / float64(sim.Second)
	}
	return sum
}

// Property: the empirical arrival count (equivalently the mean interarrival
// gap) matches the integral of the spec's rate function within sampling
// tolerance, for all three kinds.
func TestArrivalsRateCorrect(t *testing.T) {
	for name, a := range arrivalSpecs() {
		s := a.Schedule(99)
		want := expectedCount(a)
		got := float64(len(s))
		// 5 sigma of a Poisson count, floored at 5% relative.
		tol := 5 * math.Sqrt(want)
		if rel := 0.05 * want; tol < rel {
			tol = rel
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("%s: %v arrivals, want %.0f +/- %.0f", name, len(s), want, tol)
		}
		// Mean interarrival over the whole horizon.
		meanGap := float64(a.Horizon) / got
		wantGap := float64(a.Horizon) / want
		if math.Abs(meanGap-wantGap) > 0.05*wantGap {
			t.Fatalf("%s: mean interarrival %.0fns, want %.0fns", name, meanGap, wantGap)
		}
	}
}

// Burst windows must actually be busier than the calm baseline.
func TestArrivalsBurstShape(t *testing.T) {
	a := arrivalSpecs()["burst"]
	s := a.Schedule(7)
	var inBurst, calm int
	for _, at := range s {
		if at >= a.BurstEvery && at%a.BurstEvery < a.BurstLen {
			inBurst++
		} else {
			calm++
		}
	}
	// Burst windows cover 1/5 of the post-warmup run at 5x the rate, so
	// they should hold roughly half the arrivals — assert well above the
	// 1/5 a flat process would put there.
	frac := float64(inBurst) / float64(len(s))
	if frac < 0.35 {
		t.Fatalf("burst windows hold %.0f%% of arrivals, want >35%%", 100*frac)
	}
}

func TestArrivalsValidate(t *testing.T) {
	cases := []struct {
		name string
		a    *Arrivals
		ok   bool
	}{
		{"nil", nil, true},
		{"poisson", &Arrivals{Kind: ArrivePoisson, Rate: 100, Horizon: sim.Second}, true},
		{"zero-rate", &Arrivals{Kind: ArrivePoisson, Rate: 0, Horizon: sim.Second}, false},
		{"nan-rate", &Arrivals{Kind: ArrivePoisson, Rate: math.NaN(), Horizon: sim.Second}, false},
		{"inf-rate", &Arrivals{Kind: ArrivePoisson, Rate: math.Inf(1), Horizon: sim.Second}, false},
		{"zero-horizon", &Arrivals{Kind: ArrivePoisson, Rate: 100}, false},
		{"diurnal", &Arrivals{Kind: ArriveDiurnal, Rate: 100, Horizon: sim.Second, Trough: 0.5}, true},
		{"diurnal-zero-trough", &Arrivals{Kind: ArriveDiurnal, Rate: 100, Horizon: sim.Second, Trough: 0}, false},
		{"diurnal-big-trough", &Arrivals{Kind: ArriveDiurnal, Rate: 100, Horizon: sim.Second, Trough: 1.5}, false},
		{"diurnal-nan-trough", &Arrivals{Kind: ArriveDiurnal, Rate: 100, Horizon: sim.Second, Trough: math.NaN()}, false},
		{"burst", &Arrivals{Kind: ArriveBurst, Rate: 100, Horizon: sim.Second,
			BurstEvery: 100 * sim.Millisecond, BurstLen: 10 * sim.Millisecond, BurstFactor: 3}, true},
		{"burst-no-window", &Arrivals{Kind: ArriveBurst, Rate: 100, Horizon: sim.Second, BurstFactor: 3}, false},
		{"burst-len-exceeds-spacing", &Arrivals{Kind: ArriveBurst, Rate: 100, Horizon: sim.Second,
			BurstEvery: 10 * sim.Millisecond, BurstLen: 20 * sim.Millisecond, BurstFactor: 3}, false},
		{"burst-nan-factor", &Arrivals{Kind: ArriveBurst, Rate: 100, Horizon: sim.Second,
			BurstEvery: 100 * sim.Millisecond, BurstLen: 10 * sim.Millisecond, BurstFactor: math.NaN()}, false},
		{"unknown-kind", &Arrivals{Kind: ArrivalKind(99), Rate: 100, Horizon: sim.Second}, false},
	}
	for _, c := range cases {
		err := c.a.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid spec accepted", c.name)
		}
	}
	// An invalid spec embedded in a scenario is rejected by Scenario.Validate.
	sc := &Scenario{Arrivals: &Arrivals{Kind: ArrivePoisson, Rate: -1, Horizon: sim.Second}}
	if err := sc.Validate(4); err == nil {
		t.Fatal("Scenario.Validate accepted an invalid arrival spec")
	}
}

// sizeHintSpecs are the repository benchmark's two serving arrival specs
// (bench/workloads.go) and the three arrival presets.
func sizeHintSpecs(t *testing.T) map[string]*Arrivals {
	t.Helper()
	specs := map[string]*Arrivals{
		"serve-diurnal": {Kind: ArriveDiurnal, Rate: 6000, Horizon: 20 * sim.Second,
			Period: sim.Second, Trough: 0.2},
		"serve-failover": {Kind: ArriveBurst, Rate: 2500, Horizon: 8 * sim.Second,
			BurstEvery: 500 * sim.Millisecond, BurstLen: 125 * sim.Millisecond, BurstFactor: 4},
	}
	for _, name := range []string{"poisson", "diurnal", "burst"} {
		sc, err := Preset(name, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		specs[name] = sc.Arrivals
	}
	return specs
}

// TestArrivalsSizeHintHolds: over 200 seeds of each spec, Schedule never
// regrows its slice (its capacity is the size hint), and wherever the rate
// varies the hint reserves less than the peak-rate envelope's count.
func TestArrivalsSizeHintHolds(t *testing.T) {
	for name, a := range sizeHintSpecs(t) {
		hint := a.sizeHint()
		if envelope := int(a.peak()*float64(a.Horizon)/float64(sim.Second)) + 16; a.Kind != ArrivePoisson && hint >= envelope {
			t.Fatalf("%s: hint %d, not below the envelope's %d", name, hint, envelope)
		}
		for seed := uint64(0); seed < 200; seed++ {
			if s := a.Schedule(seed); cap(s) != hint {
				t.Fatalf("%s seed %d: %d arrivals in capacity %d, want the hint %d", name, seed, len(s), cap(s), hint)
			}
		}
	}
}

// TestArrivalsSizeHintMean: the closed-form mean count matches the numeric
// integral of the rate function, for partial diurnal cycles and partial
// burst windows too; a 1 ns burst spacing costs no loop over windows.
func TestArrivalsSizeHintMean(t *testing.T) {
	specs := sizeHintSpecs(t)
	for name, a := range arrivalSpecs() {
		specs["spec "+name] = a
	}
	specs["diurnal partial cycle"] = &Arrivals{Kind: ArriveDiurnal, Rate: 1000, Horizon: 2300 * sim.Millisecond,
		Period: sim.Second, Trough: 0.1}
	specs["diurnal whole-run period"] = &Arrivals{Kind: ArriveDiurnal, Rate: 1000, Horizon: 1700 * sim.Millisecond, Trough: 0.3}
	specs["burst cut window"] = &Arrivals{Kind: ArriveBurst, Rate: 1000, Horizon: 1050 * sim.Millisecond,
		BurstEvery: 500 * sim.Millisecond, BurstLen: 100 * sim.Millisecond, BurstFactor: 6}
	specs["burst dip"] = &Arrivals{Kind: ArriveBurst, Rate: 1000, Horizon: 1300 * sim.Millisecond,
		BurstEvery: 200 * sim.Millisecond, BurstLen: 150 * sim.Millisecond, BurstFactor: 0.25}
	specs["burst 1ns spacing"] = &Arrivals{Kind: ArriveBurst, Rate: 1000, Horizon: 10 * sim.Millisecond,
		BurstEvery: 1, BurstLen: 1, BurstFactor: 3}
	for name, a := range specs {
		got, want := a.expected(), expectedCount(a)
		if math.Abs(got-want) > 1e-3*want {
			t.Errorf("%s: closed-form mean %.2f, numeric integral %.2f", name, got, want)
		}
	}
}
