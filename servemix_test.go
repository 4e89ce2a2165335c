package jessica2_test

import (
	"strings"
	"testing"

	"jessica2"
)

// serveRun drives one open-loop ServeMix session under the diurnal arrival
// preset with the closed-loop rebalance policy and returns the final
// serving stats rendered to a string (the golden-determinism unit) plus the
// final snapshot.
func serveRun(t *testing.T, preset string, seed uint64) (string, *jessica2.Snapshot) {
	t.Helper()
	sc, err := jessica2.ScenarioPreset(preset, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the preset schedule so the test stays quick.
	sc.Arrivals.Rate /= 8
	sc.Arrivals.Horizon /= 4

	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = 4
	cfg.Scenario = sc
	cfg.Epoch = 25 * jessica2.Millisecond
	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(jessica2.NewServeMix(), jessica2.Params{Threads: 8, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate}); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetPolicy(jessica2.NewRebalancePolicy()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()
	if snap.Serve == nil {
		t.Fatal("open-loop session snapshot has no Serve stats")
	}
	return snap.Serve.String(), snap
}

// TestServeMixGoldenDeterminism: an open-loop run is exactly as
// reproducible as a closed-loop one — same seed, byte-identical serving
// stats. Runs under -race in CI.
func TestServeMixGoldenDeterminism(t *testing.T) {
	a, snap := serveRun(t, "diurnal", 7)
	b, _ := serveRun(t, "diurnal", 7)
	if a != b {
		t.Fatalf("same seed diverged:\n  run1: %s\n  run2: %s", a, b)
	}
	if c, _ := serveRun(t, "diurnal", 8); c == a {
		t.Fatal("different seeds produced identical serving stats")
	}

	s := snap.Serve
	if s.Completed == 0 || s.Completed != s.Arrived {
		t.Fatalf("run finished with %d/%d requests served", s.Completed, s.Arrived)
	}
	if s.InFlight != 0 {
		t.Fatalf("run finished with %d in flight", s.InFlight)
	}
	if s.LatencyP50 <= 0 || s.LatencyP95 < s.LatencyP50 || s.LatencyP99 < s.LatencyP95 || s.LatencyMax < s.LatencyP99 {
		t.Fatalf("latency percentiles not monotone: %s", s)
	}
	if s.GoodputPerSec <= 0 {
		t.Fatalf("no goodput: %s", s)
	}
}

// TestServeMixNeedsSchedule: launching an open-loop workload without any
// arrival source is a configuration error, not a hang.
func TestServeMixNeedsSchedule(t *testing.T) {
	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = 4
	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(jessica2.NewServeMix(), jessica2.Params{Threads: 4, Seed: 1}); err == nil {
		t.Fatal("Launch accepted an open-loop workload with no schedule")
	}
}

// TestServeMixRejectsNoTenants: a ServeMix with no tenants is a
// configuration error that Launch returns, naming the field, instead of a
// divide-by-zero panic in the tenant draw.
func TestServeMixRejectsNoTenants(t *testing.T) {
	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = 4
	sess := jessica2.NewSession(cfg)
	w := jessica2.NewServeMix()
	w.Tenants = 0
	w.SetSchedule([]jessica2.Time{jessica2.Millisecond, 2 * jessica2.Millisecond})
	err := sess.Launch(w, jessica2.Params{Threads: 4, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "Tenants") {
		t.Fatalf("Launch = %v, want an error naming Tenants", err)
	}
}

// TestServeMixClosedLoopSnapshotNil: closed-loop sessions never see the
// Serve field move (golden byte-identity depends on it).
func TestServeMixClosedLoopSnapshotNil(t *testing.T) {
	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = 4
	sess := jessica2.NewSession(cfg)
	syn := jessica2.NewSynthetic()
	if err := sess.Launch(syn, jessica2.Params{Threads: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if sess.Snapshot().Serve != nil {
		t.Fatal("closed-loop snapshot grew a Serve view")
	}
}
