package session

import (
	"jessica2/internal/heap"
	"jessica2/internal/profile"
	"jessica2/internal/sampling"
)

// WarmStartPolicy is the profile-guided closed-loop controller: it spends
// the sampling budget only where the live run diverges from a stored
// profile. On a warm start (Config.Profile.Load accepted) the stored
// placement is already applied before epoch 0 and the TCM accumulator is
// seeded, so the policy's job is (1) to replay the stored hot-object homes
// early — the knowledge the cold run paid whole phases to learn — and
// (2) to drive the sampling rate from the snapshot's Divergence signal:
// floor rate while the live correlation structure matches the profile,
// reopening to the full rate (and delegating to the Inner optimizer) when
// a phase shift pushes divergence past the high water mark.
//
// When no profile was loaded (snapshot Divergence < 0 — a cold or
// fingerprint-mismatched run) the policy is a transparent proxy for Inner,
// so "warmstart without a profile" degrades to plain rebalancing.
type WarmStartPolicy struct {
	// Inner is the optimizer consulted while the rate gate is open (and
	// always, on cold runs).
	Inner Policy
	// Profile is the stored artifact whose hot homes are replayed.
	Profile *profile.Profile

	open     bool
	rate     sampling.Rate
	replayed bool
}

// WarmStartPolicy's gate: it closes (floor rate, Inner muted) when
// divergence falls below divergenceLow and reopens (open rate, Inner
// consulted) when divergence rises above divergenceHigh.
const (
	divergenceLow  = 0.10
	divergenceHigh = 0.35
	// warmFloorRate is the converged sampling rate; warmOpenRate the
	// reopened one.
	warmFloorRate sampling.Rate = 1
	warmOpenRate                = sampling.MaxRate
)

// NewWarmStartPolicy returns the policy around the given stored profile,
// with a RebalancePolicy inner optimizer.
func NewWarmStartPolicy(p *profile.Profile) *WarmStartPolicy {
	return &WarmStartPolicy{Inner: NewRebalancePolicy(), Profile: p}
}

// Name implements Policy.
func (p *WarmStartPolicy) Name() string { return "warmstart" }

// NeedsProfile implements Policy: the divergence signal needs the live map.
func (p *WarmStartPolicy) NeedsProfile() bool { return true }

// Observe implements Policy.
func (p *WarmStartPolicy) Observe(snap *Snapshot) []Action {
	if snap.Divergence < 0 {
		// No profile loaded: transparent cold-start proxy.
		if p.Inner != nil {
			return p.Inner.Observe(snap)
		}
		return nil
	}
	var acts []Action

	// 1. Replay the stored hot-object homes at the first boundary, in one
	// bulk pass: these are the decisions the profiled run converged to, and
	// objects that already exist (closed-loop mixes preallocate their
	// records) re-home immediately. Objects not yet allocated no-op with a
	// "no such object" note and are picked up by the divergence path later.
	if !p.replayed {
		p.replayed = true
		if p.Profile != nil {
			for _, hh := range p.Profile.HotHomes {
				acts = append(acts, RehomeObject{Object: heap.ObjectID(hh.Key), To: int(hh.Home)})
			}
		}
	}

	// 2. Divergence-gated sampling rate with hysteresis. The first boundary
	// decides from the seeded map (matching profile → below the low mark → floor);
	// emitted only on change so a converged run charges one resample pass.
	if snap.Divergence >= divergenceHigh {
		p.open = true
	} else if snap.Divergence <= divergenceLow {
		p.open = false
	}
	want := warmFloorRate
	if p.open {
		want = warmOpenRate
	}
	if want != p.rate {
		p.rate = want
		acts = append(acts, SetSamplingRate{Rate: want})
	}

	// 3. While the gate is open the live run has drifted from the profile:
	// hand the snapshot to the inner optimizer so placement re-converges
	// from fresh evidence. While closed, the profile is the plan — the
	// inner optimizer stays muted, the run coasts at the floor rate, and
	// newly surfaced shared objects are steered to their stored homes
	// (open-loop workloads allocate lazily, so the epoch-1 replay cannot
	// reach objects that do not exist yet).
	if p.open {
		if p.Inner != nil {
			acts = append(acts, p.Inner.Observe(snap)...)
		}
	} else if p.Profile != nil {
		for _, h := range snap.Hot {
			if home, ok := p.Profile.HomeOf(int64(h.Object)); ok && home != h.Home {
				acts = append(acts, RehomeObject{Object: h.Object, To: home})
			}
		}
	}
	return acts
}
