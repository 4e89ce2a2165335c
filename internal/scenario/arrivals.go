package scenario

// Open-loop arrival processes. An Arrivals spec describes how requests
// reach a request-serving workload (workload.ServeMix): unlike the
// closed-loop apps, where the next unit of work starts only when the
// previous one finishes, an open-loop workload receives requests on a
// schedule that does not care how the cluster is doing — so queueing delay
// and tail latency become visible the moment placement is bad.
//
// Schedules are generated by thinning a homogeneous Poisson process at the
// spec's peak rate: exponential gaps are drawn from a seeded SplitMix64
// stream and each candidate arrival is accepted with probability
// rate(t)/peak. The whole schedule is a pure function of (spec, seed), so
// the same seed yields a byte-identical schedule — exactly the contract the
// jitter and flush-loss vocabularies already follow. Arrivals, jitter and
// flush loss each derive their own stream from the scenario seed.

import (
	"fmt"
	"math"

	"jessica2/internal/sim"
	"jessica2/internal/xrand"
)

// ArrivalKind selects the shape of the arrival-rate function.
type ArrivalKind int

const (
	// ArrivePoisson is a homogeneous Poisson process at Rate.
	ArrivePoisson ArrivalKind = iota
	// ArriveDiurnal modulates Rate sinusoidally over Period: the run starts
	// at the trough (Trough×Rate), peaks at Rate half a period in, and
	// returns — the day/night cycle of a user-facing service.
	ArriveDiurnal
	// ArriveBurst is a baseline Poisson process at Rate with periodic
	// flash-crowd windows at BurstFactor×Rate.
	ArriveBurst
)

func (k ArrivalKind) String() string {
	switch k {
	case ArrivePoisson:
		return "poisson"
	case ArriveDiurnal:
		return "diurnal"
	case ArriveBurst:
		return "burst"
	default:
		return fmt.Sprintf("arrivalkind(%d)", int(k))
	}
}

// Arrivals is an open-loop arrival schedule spec.
type Arrivals struct {
	Kind ArrivalKind
	// Rate is the arrival rate in requests per simulated second: the flat
	// rate for Poisson, the peak of the diurnal cycle, the baseline between
	// bursts.
	Rate float64
	// Horizon bounds the schedule; no request arrives at or after it.
	Horizon sim.Time

	// Period is the diurnal cycle length; zero defaults to Horizon (one
	// full day over the run). Trough, in (0, 1], is the fraction of Rate
	// at the bottom of the cycle.
	Period sim.Time
	Trough float64

	// Burst windows open every BurstEvery (first at BurstEvery, so the run
	// starts calm), last BurstLen, and multiply the rate by BurstFactor.
	BurstEvery, BurstLen sim.Time
	BurstFactor          float64
}

// finite reports whether f is a usable real number (not NaN or ±Inf).
func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// Validate checks the spec independently of any cluster size.
func (a *Arrivals) Validate() error {
	if a == nil {
		return nil
	}
	if !finite(a.Rate) || a.Rate <= 0 {
		return fmt.Errorf("scenario: arrival rate %g must be positive and finite", a.Rate)
	}
	if a.Horizon <= 0 {
		return fmt.Errorf("scenario: arrival horizon %v must be positive", a.Horizon)
	}
	switch a.Kind {
	case ArrivePoisson:
	case ArriveDiurnal:
		if a.Period < 0 {
			return fmt.Errorf("scenario: negative diurnal period %v", a.Period)
		}
		if !finite(a.Trough) || a.Trough <= 0 || a.Trough > 1 {
			return fmt.Errorf("scenario: diurnal trough %g must be in (0, 1]", a.Trough)
		}
	case ArriveBurst:
		if a.BurstEvery <= 0 || a.BurstLen <= 0 {
			return fmt.Errorf("scenario: burst window every=%v len=%v must be positive", a.BurstEvery, a.BurstLen)
		}
		if a.BurstLen > a.BurstEvery {
			return fmt.Errorf("scenario: burst length %v exceeds burst spacing %v", a.BurstLen, a.BurstEvery)
		}
		if !finite(a.BurstFactor) || a.BurstFactor <= 0 {
			return fmt.Errorf("scenario: burst factor %g must be positive and finite", a.BurstFactor)
		}
	default:
		return fmt.Errorf("scenario: unknown arrival kind %d", int(a.Kind))
	}
	return nil
}

// peak is the maximum of rateAt over the horizon — the thinning envelope.
func (a *Arrivals) peak() float64 {
	if a.Kind == ArriveBurst && a.BurstFactor > 1 {
		return a.Rate * a.BurstFactor
	}
	return a.Rate
}

// period is the diurnal cycle length, Horizon when Period is zero.
func (a *Arrivals) period() sim.Time {
	if a.Period == 0 {
		return a.Horizon
	}
	return a.Period
}

// rateAt evaluates the instantaneous arrival rate (requests per simulated
// second) at virtual time t.
func (a *Arrivals) rateAt(t sim.Time) float64 {
	switch a.Kind {
	case ArriveDiurnal:
		period := a.period()
		// Trough at t = 0 and every full period, peak half a period in.
		phase := 2 * math.Pi * float64(t%period) / float64(period)
		depth := 0.5 - 0.5*math.Cos(phase) // 0 at trough, 1 at peak
		return a.Rate * (a.Trough + (1-a.Trough)*depth)
	case ArriveBurst:
		if t >= a.BurstEvery && t%a.BurstEvery < a.BurstLen {
			return a.Rate * a.BurstFactor
		}
		return a.Rate
	default:
		return a.Rate
	}
}

// expected is the mean arrival count over the horizon, the integral of
// rateAt over [0, Horizon), in closed form.
func (a *Arrivals) expected() float64 {
	h := a.Horizon.Seconds()
	switch a.Kind {
	case ArriveDiurnal:
		// The mean depth over whole cycles is 1/2; the cosine's integral
		// over the last partial cycle corrects it.
		p := a.period().Seconds()
		wave := p / (2 * math.Pi) * math.Sin(2*math.Pi*h/p)
		return a.Rate * (a.Trough*h + (1-a.Trough)*(h-wave)/2)
	case ArriveBurst:
		// Windows open at k·BurstEvery for k = 1..m, the last one before
		// the horizon; only that one can be cut short.
		var burst sim.Time
		if m := (a.Horizon - 1) / a.BurstEvery; m > 0 {
			burst = (m-1)*a.BurstLen + min(a.BurstLen, a.Horizon-m*a.BurstEvery)
		}
		return a.Rate * (h + (a.BurstFactor-1)*burst.Seconds())
	default:
		return a.Rate * h
	}
}

// sizeHint is the capacity Schedule reserves: the Poisson count's mean
// plus four standard deviations and a little slack, so a schedule almost
// never regrows. The peak-rate envelope's mean is no cap: for a flat rate
// it is the mean count itself, which about half of all schedules exceed.
func (a *Arrivals) sizeHint() int {
	mu := a.expected()
	return int(mu+4*math.Sqrt(mu)) + 16
}

// Schedule materializes the arrival times in [0, Horizon), sorted
// ascending. It is a pure function of the spec and seed: the same pair is
// byte-identical across runs. It panics on an invalid spec (callers
// validate via Scenario.Validate).
func (a *Arrivals) Schedule(seed uint64) []sim.Time {
	if err := a.Validate(); err != nil {
		panic(err)
	}
	rng := xrand.New(seed).Derive(0xa221)
	peak := a.peak()
	out := make([]sim.Time, 0, a.sizeHint())
	t := 0.0
	horizon := float64(a.Horizon)
	for {
		// Exponential gap of the peak-rate envelope process, in virtual ns.
		// 1-U keeps the argument in (0, 1] so the log is finite.
		t += -math.Log(1-rng.Float64()) / peak * float64(sim.Second)
		if t >= horizon {
			break
		}
		at := sim.Time(t)
		// Thinning: accept with probability rate(at)/peak. The draw happens
		// on every candidate, even for flat schedules, so all three kinds
		// consume the stream identically.
		if rng.Float64()*peak < a.rateAt(at) {
			out = append(out, at)
		}
	}
	return out
}
