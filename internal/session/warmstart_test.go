package session

import (
	"slices"
	"testing"

	"jessica2/internal/profile"
	"jessica2/internal/sampling"
)

// recordingPolicy counts Observe calls so tests can see when the warm-start
// gate consults its inner optimizer, and keeps a copy of every observed Hot
// list (the snapshot's own aliases session scratch).
type recordingPolicy struct {
	calls int
	emit  []Action
	hot   [][]HotObject
}

func (p *recordingPolicy) Name() string       { return "recording" }
func (p *recordingPolicy) NeedsProfile() bool { return true }
func (p *recordingPolicy) Observe(s *Snapshot) []Action {
	p.calls++
	p.hot = append(p.hot, slices.Clone(s.Hot))
	return p.emit
}

func rates(acts []Action) []sampling.Rate {
	var out []sampling.Rate
	for _, a := range acts {
		if r, ok := a.(SetSamplingRate); ok {
			out = append(out, r.Rate)
		}
	}
	return out
}

func rehomeCount(acts []Action) int {
	n := 0
	for _, a := range acts {
		if _, ok := a.(RehomeObject); ok {
			n++
		}
	}
	return n
}

// TestWarmStartColdProxy: with no profile loaded (Divergence < 0) the
// policy is a transparent proxy for its inner optimizer — no replay, no
// rate actions of its own.
func TestWarmStartColdProxy(t *testing.T) {
	inner := &recordingPolicy{emit: []Action{MigrateThread{Thread: 1, To: 2}}}
	p := NewWarmStartPolicy(&profile.Profile{HotHomes: []profile.HotHome{{Key: 9, Home: 1}}})
	p.Inner = inner
	acts := p.Observe(&Snapshot{Divergence: -1})
	if inner.calls != 1 {
		t.Fatalf("inner consulted %d times, want 1", inner.calls)
	}
	if len(acts) != 1 {
		t.Fatalf("cold proxy emitted %d actions, want the inner's 1", len(acts))
	}
	if rehomeCount(acts) != 0 {
		t.Fatal("cold proxy replayed stored homes")
	}
}

// TestWarmStartReplayAndFloor: the first boundary of a matching warm run
// replays every stored home once and drops the rate to the floor; the
// muted inner optimizer is not consulted while the gate is closed.
func TestWarmStartReplayAndFloor(t *testing.T) {
	inner := &recordingPolicy{}
	p := NewWarmStartPolicy(&profile.Profile{
		HotHomes: []profile.HotHome{{Key: 3, Home: 1}, {Key: 9, Home: 0}},
	})
	p.Inner = inner

	acts := p.Observe(&Snapshot{Divergence: 0})
	if got := rehomeCount(acts); got != 2 {
		t.Fatalf("first boundary replayed %d homes, want 2", got)
	}
	if got := rates(acts); len(got) != 1 || got[0] != warmFloorRate {
		t.Fatalf("first boundary rates = %v, want [%v]", got, warmFloorRate)
	}
	if inner.calls != 0 {
		t.Fatal("inner consulted while the gate is closed")
	}

	// Subsequent matching boundaries: nothing to do (replay is once, the
	// rate is already at the floor).
	acts = p.Observe(&Snapshot{Divergence: 0.02})
	if len(acts) != 0 {
		t.Fatalf("steady matching boundary emitted %v", acts)
	}
}

// TestWarmStartHysteresis drives the divergence signal across the water
// marks and checks the gate's open/close transitions, the rate actions
// they emit, and the inner consultations while open.
func TestWarmStartHysteresis(t *testing.T) {
	inner := &recordingPolicy{}
	p := NewWarmStartPolicy(&profile.Profile{})
	p.Inner = inner
	p.Observe(&Snapshot{Divergence: 0}) // converge to floor

	// Between the marks: no transition.
	if acts := p.Observe(&Snapshot{Divergence: (divergenceLow + divergenceHigh) / 2}); len(acts) != 0 {
		t.Fatalf("mid-band boundary emitted %v", acts)
	}
	if inner.calls != 0 {
		t.Fatal("inner consulted below the high mark")
	}

	// Phase shift: cross the high mark — reopen, consult inner.
	acts := p.Observe(&Snapshot{Divergence: divergenceHigh + 0.1})
	if got := rates(acts); len(got) != 1 || got[0] != warmOpenRate {
		t.Fatalf("reopen rates = %v, want [%v]", got, warmOpenRate)
	}
	if inner.calls != 1 {
		t.Fatalf("inner consulted %d times after reopen, want 1", inner.calls)
	}

	// Still open mid-band (hysteresis): no rate action, inner consulted.
	if got := rates(p.Observe(&Snapshot{Divergence: (divergenceLow + divergenceHigh) / 2})); len(got) != 0 {
		t.Fatalf("open mid-band emitted rate actions %v", got)
	}
	if inner.calls != 2 {
		t.Fatalf("inner consulted %d times while open, want 2", inner.calls)
	}

	// Re-converge below the low mark: back to the floor, inner muted again.
	acts = p.Observe(&Snapshot{Divergence: divergenceLow - 0.05})
	if got := rates(acts); len(got) != 1 || got[0] != warmFloorRate {
		t.Fatalf("re-converge rates = %v, want [%v]", got, warmFloorRate)
	}
	if inner.calls != 2 {
		t.Fatal("inner consulted after the gate closed")
	}
}

// TestWarmStartSteering: while the gate is closed, newly surfaced shared
// objects with a stored home are steered to it; objects already on their
// stored home or absent from the profile are left alone. While the gate is
// open the inner optimizer owns placement and no steering happens.
func TestWarmStartSteering(t *testing.T) {
	inner := &recordingPolicy{}
	p := NewWarmStartPolicy(&profile.Profile{
		HotHomes: []profile.HotHome{{Key: 3, Home: 1}, {Key: 9, Home: 2}},
	})
	p.Inner = inner
	p.Observe(&Snapshot{Divergence: 0}) // replay + converge to floor

	acts := p.Observe(&Snapshot{Divergence: 0, Hot: []HotObject{
		{Object: 3, Home: 0},  // stored home 1, differs: steer
		{Object: 9, Home: 2},  // already on its stored home: leave
		{Object: 77, Home: 0}, // not in the profile: leave
	}})
	if got := rehomeCount(acts); got != 1 {
		t.Fatalf("closed-gate steering emitted %d rehomes, want 1", got)
	}
	if r, ok := acts[0].(RehomeObject); !ok || r.Object != 3 || r.To != 1 {
		t.Fatalf("steering action = %#v, want RehomeObject{3, 1}", acts[0])
	}

	// Open the gate: steering stops, the inner optimizer takes over.
	acts = p.Observe(&Snapshot{Divergence: divergenceHigh + 0.1, Hot: []HotObject{
		{Object: 3, Home: 0},
	}})
	if got := rehomeCount(acts); got != 0 {
		t.Fatalf("open-gate boundary steered %d rehomes, want 0", got)
	}
	if inner.calls != 1 {
		t.Fatalf("inner consulted %d times after reopen, want 1", inner.calls)
	}
}

// TestWarmStartNilInner: a policy without an inner optimizer still gates
// the rate and never panics, cold or warm.
func TestWarmStartNilInner(t *testing.T) {
	p := NewWarmStartPolicy(nil)
	p.Inner = nil
	if acts := p.Observe(&Snapshot{Divergence: -1}); acts != nil {
		t.Fatalf("cold nil-inner emitted %v", acts)
	}
	acts := p.Observe(&Snapshot{Divergence: 0.9})
	if got := rates(acts); len(got) != 1 || got[0] != warmOpenRate {
		t.Fatalf("nil-inner open rates = %v, want [%v]", got, warmOpenRate)
	}
}
