package session

import (
	"fmt"
	"slices"
	"testing"

	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/profile"
	"jessica2/internal/sampling"
	"jessica2/internal/scenario"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// kvSession is a closed-loop session of the repository benchmark's
// closedloop-kv shape: KVMix with 2,048 keys, 8 threads on 4 nodes under
// the phased preset, sampled tracking at the full rate and 2 ms epochs.
func kvSession(t *testing.T, seed uint64, p Policy) *Session {
	t.Helper()
	const nodes = 4
	kcfg := gos.DefaultConfig()
	kcfg.Nodes = nodes
	kcfg.Tracking = gos.TrackingSampled
	scen, err := scenario.Preset("phased", nodes, seed)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewKVMix()
	w.Keys, w.ValueSize = 2048, 128
	w.Rounds, w.TxnsPerRound, w.OpsPerTxn = 24, 24, 4
	w.HotSpan = 256
	return started(t, Config{Kernel: kcfg, Scenario: scen, Epoch: 2 * sim.Millisecond}, w, seed, p)
}

// serveSession is an open-loop session of the benchmark's serve-diurnal
// shape, cut from 20 s to 2 s: ServeMix, 8 threads on 4 nodes, diurnal
// arrivals peaking at 6,000 req/s with a 1 s period and 125 ms epochs.
func serveSession(t *testing.T, seed uint64, p Policy) *Session {
	t.Helper()
	kcfg := gos.DefaultConfig()
	kcfg.Nodes = 4
	kcfg.Tracking = gos.TrackingSampled
	scen := &scenario.Scenario{Name: "serve-diurnal", Seed: seed, Arrivals: &scenario.Arrivals{
		Kind: scenario.ArriveDiurnal, Rate: 6000, Horizon: 2 * sim.Second,
		Period: sim.Second, Trough: 0.2,
	}}
	w := workload.NewServeMix()
	w.RotateEvery = 500 * sim.Millisecond
	w.SLO = 20 * sim.Millisecond
	return started(t, Config{Kernel: kcfg, Scenario: scen, Epoch: 125 * sim.Millisecond}, w, seed, p)
}

// started launches w on 8 threads, attaches full-rate profiling and
// installs p.
func started(t *testing.T, cfg Config, w workload.Workload, seed uint64, p Policy) *Session {
	t.Helper()
	s := New(cfg)
	if err := s.Launch(w, workload.Params{Threads: 8, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachProfiling(core.Config{Rate: sampling.FullRate}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBoundaryAllocatesOnlyActions: once a session's boundary buffers have
// grown, a boundary snapshot and RebalancePolicy.Observe allocate nothing
// but the actions the policy returns (each boxed into an Action). The
// session is paused one epoch past its last boundary, so the snapshot
// carries a hot list, and the snapshot does not consume it, so every run
// sees the same one.
func TestBoundaryAllocatesOnlyActions(t *testing.T) {
	p := NewRebalancePolicy()
	s := kvSession(t, 42, p)
	for i := 0; i < 3; i++ {
		if done, err := s.Step(s.cfg.Epoch); err != nil || done {
			t.Fatalf("step %d: done %v, err %v", i, done, err)
		}
	}
	if s.k.RunUntil(s.Now() + s.cfg.Epoch) {
		t.Fatal("run finished within four epochs")
	}
	s.k.FlushAllOAL()

	var snap *Snapshot
	var acts []Action
	allocs := testing.AllocsPerRun(20, func() {
		snap = s.snapshot(&s.scratch, true, false)
		acts = p.Observe(snap)
	})
	if len(snap.Hot) == 0 || snap.TCM.Total() == 0 {
		t.Fatalf("the boundary has %d hot objects and TCM total %v: nothing to plan", len(snap.Hot), snap.TCM.Total())
	}
	rehomes := rehomeCount(acts)
	if rehomes == 0 {
		t.Fatalf("no re-home among %d actions", len(acts))
	}
	if allocs > float64(len(acts)) {
		t.Fatalf("a boundary allocates %v times for %d actions (%d re-homes, %d hot objects)",
			allocs, len(acts), rehomes, len(snap.Hot))
	}
}

// TestCapturedProfileSizesOnce: capturing a finished closedloop-kv-shaped
// session's profile reads the shared keys straight from the daemon and
// sizes the hot-home and decision lists once, so it allocates a handful of
// times however many hot objects and decisions the run has.
func TestCapturedProfileSizesOnce(t *testing.T) {
	s := kvSession(t, 42, NewRebalancePolicy())
	s.cfg.Profile.Save = true
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var prof *profile.Profile
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if prof, err = s.CapturedProfile(); err != nil {
			t.Fatal(err)
		}
	})
	if len(prof.HotHomes) < 1000 || len(prof.Decisions) < 1000 {
		t.Fatalf("%d hot homes and %d decisions: the run is too small to show growth", len(prof.HotHomes), len(prof.Decisions))
	}
	if allocs > 10 {
		t.Fatalf("CapturedProfile allocates %v times for %d hot homes and %d decisions, want at most 10",
			allocs, len(prof.HotHomes), len(prof.Decisions))
	}
}

// freshRebalance builds a new RebalancePolicy for every boundary: the
// reference a reused policy must match, whatever its buffers held.
type freshRebalance struct{}

func (freshRebalance) Name() string                    { return "rebalance" }
func (freshRebalance) NeedsProfile() bool              { return true }
func (freshRebalance) Observe(snap *Snapshot) []Action { return NewRebalancePolicy().Observe(snap) }

// TestRebalancePolicyReuseMatchesFresh: one RebalancePolicy kept across
// every boundary decides exactly what a fresh one per boundary decides, so
// nothing leaks from one boundary to the next through the buffers it
// keeps, on both benchmark shapes that run it.
func TestRebalancePolicyReuseMatchesFresh(t *testing.T) {
	shapes := map[string]func(*testing.T, uint64, Policy) *Session{
		"closedloop-kv": kvSession,
		"serve-diurnal": serveSession,
	}
	for name, shape := range shapes {
		for _, seed := range []uint64{42, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				reused, fresh := shape(t, seed, NewRebalancePolicy()), shape(t, seed, freshRebalance{})
				for _, s := range []*Session{reused, fresh} {
					if _, err := s.Run(); err != nil {
						t.Fatal(err)
					}
				}
				got, want := reused.Actions(), fresh.Actions()
				if len(want) == 0 || rehomeCount(actionsOf(want)) == 0 {
					t.Fatalf("the fresh policies re-homed nothing in %d actions", len(want))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("a reused policy logged %d actions, fresh ones %d; first difference at %d",
						len(got), len(want), firstDiff(got, want))
				}
				if reused.ExecTime() != fresh.ExecTime() {
					t.Fatalf("exec %v with a reused policy, %v with fresh ones", reused.ExecTime(), fresh.ExecTime())
				}
			})
		}
	}
}

func actionsOf(log []AppliedAction) []Action {
	acts := make([]Action, len(log))
	for i, aa := range log {
		acts[i] = aa.Action
	}
	return acts
}

func firstDiff(a, b []AppliedAction) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
