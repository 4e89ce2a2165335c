package jessica2_test

import (
	"errors"
	"testing"

	"jessica2"
)

// TestSessionLifecycleErrors: the session API reports misuse as errors.
func TestSessionLifecycleErrors(t *testing.T) {
	sess := jessica2.NewSession(jessica2.DefaultConfig())
	if _, err := sess.Step(jessica2.Millisecond); !errors.Is(err, jessica2.ErrNoWorkload) {
		t.Fatalf("Step on empty session: %v", err)
	}
	if _, err := sess.Run(); !errors.Is(err, jessica2.ErrNoWorkload) {
		t.Fatalf("Run on empty session: %v", err)
	}

	if err := sess.Launch(quickSOR(), jessica2.Params{Threads: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(0); err == nil {
		t.Fatal("non-positive epoch accepted")
	}
	if done, err := sess.Step(jessica2.Millisecond); err != nil || done {
		t.Fatalf("first step: done=%v err=%v", done, err)
	}

	// Configuration after the first step is a lifecycle error.
	if err := sess.Launch(quickSOR(), jessica2.Params{Threads: 2, Seed: 1}); !errors.Is(err, jessica2.ErrStarted) {
		t.Fatalf("Launch after start: %v", err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{}); !errors.Is(err, jessica2.ErrStarted) {
		t.Fatalf("AttachProfiling after start: %v", err)
	}
	if err := sess.SetPolicy(jessica2.NopPolicy{}); !errors.Is(err, jessica2.ErrStarted) {
		t.Fatalf("SetPolicy after start: %v", err)
	}
	if _, err := sess.Report(); !errors.Is(err, jessica2.ErrNotFinished) {
		t.Fatalf("Report before completion: %v", err)
	}

	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if !sess.Done() {
		t.Fatal("session not done after Run")
	}
	if _, err := sess.Run(); !errors.Is(err, jessica2.ErrFinished) {
		t.Fatalf("second Run: %v", err)
	}
	// Stepping a finished session is a benign no-op.
	if done, err := sess.Step(jessica2.Millisecond); err != nil || !done {
		t.Fatalf("step after finish: done=%v err=%v", done, err)
	}
	if rep, err := sess.Report(); err != nil || rep.ExecTime() <= 0 {
		t.Fatalf("report: %v", err)
	}
}

// TestSessionInvalidScenarioSticky: an invalid configuration surfaces as an
// error on first use instead of a panic.
func TestSessionInvalidScenarioSticky(t *testing.T) {
	scen, err := jessica2.ScenarioPreset("noisy", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = 1 // noisy's slowdown nodes don't exist in a 1-node cluster
	cfg.Scenario = scen
	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(quickSOR(), jessica2.Params{Threads: 2, Seed: 1}); err == nil {
		t.Fatal("invalid scenario not surfaced by Launch")
	}
	if _, err := sess.Run(); err == nil {
		t.Fatal("invalid scenario not surfaced by Run")
	}
}

// TestSessionSnapshotProgress: snapshots expose live counters mid-run and
// do not disturb the run.
func TestSessionSnapshotProgress(t *testing.T) {
	sess := jessica2.NewSession(jessica2.DefaultConfig())
	if err := sess.Launch(quickSOR(), jessica2.Params{Threads: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate}); err != nil {
		t.Fatal(err)
	}
	var last jessica2.Time
	steps := 0
	for {
		done, err := sess.Step(2 * jessica2.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		snap := sess.Snapshot()
		if snap.Now < last {
			t.Fatalf("snapshot time went backwards: %v -> %v", last, snap.Now)
		}
		last = snap.Now
		if snap.Threads != 8 || snap.Nodes != 8 {
			t.Fatalf("snapshot dims: %d threads %d nodes", snap.Threads, snap.Nodes)
		}
		steps++
		if done {
			if !snap.Done {
				t.Fatal("snapshot misses completion")
			}
			break
		}
	}
	if steps < 2 {
		t.Fatalf("run completed in %d steps; epoch too coarse for the test", steps)
	}
	snap := sess.Snapshot()
	if snap.TCM == nil || snap.TCM.Total() == 0 {
		t.Fatal("final snapshot TCM empty")
	}
	if snap.Kernel.Faults == 0 || snap.Network.TotalBytes() == 0 {
		t.Fatal("snapshot counters empty")
	}
}

// TestSessionRunUntil: absolute-time stepping processes epoch boundaries
// every Config.Epoch when a policy is installed, and completes cleanly when
// stepped past the end of the run.
func TestSessionRunUntil(t *testing.T) {
	cfg := jessica2.DefaultConfig()
	cfg.Epoch = 2 * jessica2.Millisecond
	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(quickSOR(), jessica2.Params{Threads: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate}); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetPolicy(jessica2.NopPolicy{}); err != nil {
		t.Fatal(err)
	}
	done, err := sess.RunUntil(10 * jessica2.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		if sess.Now() != 10*jessica2.Millisecond {
			t.Fatalf("paused at %v, want 10ms", sess.Now())
		}
		if sess.Epochs() < 5 {
			t.Fatalf("processed %d epochs by 10ms with a 2ms period", sess.Epochs())
		}
		if done, err = sess.RunUntil(10 * jessica2.Second); err != nil || !done {
			t.Fatalf("RunUntil past the end: done=%v err=%v", done, err)
		}
	}
	if rep, err := sess.Report(); err != nil || rep.ExecTime() <= 0 {
		t.Fatalf("report after RunUntil: %v", err)
	}
}
