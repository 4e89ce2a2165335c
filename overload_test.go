package jessica2_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"jessica2"
	"jessica2/internal/runner"
)

// This file is the serving-robustness determinism gauntlet: every failure
// preset × protection level must render a byte-identical serving line on
// repeated runs (including a parallel re-run, so `-race` sweeps the whole
// grid), and the protection-off lines must stay byte-identical to the
// golden recorded before the robustness layer existed — proof the layer is
// invisible when off.

// overloadSpecs are the failure × burst-arrival preset combos under test.
var overloadSpecs = []string{"crash,burst", "flaky,burst"}

// overloadLevels are the protection levels swept per spec.
var overloadLevels = []string{"off", "shed", "full"}

// overloadRobust maps a gauntlet protection level onto a ServeMix config,
// mirroring the Figure G levels at the gauntlet's small scale.
func overloadRobust(level string) *jessica2.RobustConfig {
	switch level {
	case "off":
		return nil
	case "shed":
		return &jessica2.RobustConfig{Deadline: 20 * jessica2.Millisecond, Capacity: 16}
	case "full":
		rc := jessica2.DefaultRobustConfig()
		rc.Capacity = 16
		return rc
	}
	panic("unknown level " + level)
}

// overloadLine runs one (spec, level) cell — the exact configuration the
// robust-off golden was recorded under, with the level's protection
// installed — and renders its serving line; the finished session comes
// with it.
func overloadLine(t *testing.T, spec, level string, seed uint64) (string, *jessica2.Session) {
	t.Helper()
	sc, err := jessica2.ParseScenario(spec, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Scale the preset's arrival stream down so the whole grid stays fast:
	// same shape (bursts, crash schedule), an eighth of the rate over a
	// quarter of the horizon.
	sc.Arrivals.Rate /= 8
	sc.Arrivals.Horizon /= 4

	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = 4
	cfg.Scenario = sc
	cfg.Epoch = 25 * jessica2.Millisecond
	if level == "full" {
		// The full stack's breakers are fed by the failure detector.
		cfg.Kernel.Failure = jessica2.DefaultFailureConfig()
	}
	sess := jessica2.NewSession(cfg)
	w := jessica2.NewServeMix()
	w.Robust = overloadRobust(level)
	if err := sess.Launch(w, jessica2.Params{Threads: 8, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate}); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetPolicy(jessica2.NewRebalancePolicy()); err != nil {
		t.Fatal(err)
	}
	rep := runReport(t, sess)
	snap := sess.Snapshot()
	if snap.Serve == nil {
		t.Fatalf("%s/%s: no serving snapshot", spec, level)
	}
	return fmt.Sprintf("%s seed %d: exec %v | %s", spec, seed, rep.ExecTime(), snap.Serve), sess
}

// TestOverloadGauntletDeterministic runs the full preset × protection grid
// twice — serially, then fanned out over a worker pool — and demands
// byte-identical serving lines. Under `go test -race` the parallel pass
// doubles as a data-race sweep of the robust dispatcher.
func TestOverloadGauntletDeterministic(t *testing.T) {
	const seed = 42
	type cell struct{ spec, level string }
	var cells []cell
	for _, spec := range overloadSpecs {
		for _, level := range overloadLevels {
			cells = append(cells, cell{spec, level})
		}
	}
	serial := make([]string, len(cells))
	for i, c := range cells {
		serial[i], _ = overloadLine(t, c.spec, c.level, seed)
	}
	jobs := make([]func() string, len(cells))
	for i, c := range cells {
		jobs[i] = func() string {
			line, _ := overloadLine(t, c.spec, c.level, seed)
			return line
		}
	}
	parallel := runner.Collect(runner.New(3), jobs)
	for i, c := range cells {
		if serial[i] != parallel[i] {
			t.Errorf("%s/%s not deterministic:\n serial:   %s\n parallel: %s",
				c.spec, c.level, serial[i], parallel[i])
		}
		t.Logf("%-4s %s", c.level, serial[i])
	}
	// Protection must change results, or the gauntlet is vacuous: the
	// levels of one spec may not all render the same line.
	for _, spec := range overloadSpecs {
		lines := map[string]bool{}
		for i, c := range cells {
			if c.spec == spec {
				lines[serial[i]] = true
			}
		}
		if len(lines) < 2 {
			t.Errorf("%s: all protection levels rendered identical lines", spec)
		}
	}
}

// TestOverloadRobustOffGolden pins the robustness layer's off-state: with
// ServeMix.Robust nil, the serving line (report, kernel, arrivals, stats)
// must be byte-identical to the golden recorded before the layer existed.
// Any drift means the layer leaks into unprotected runs.
func TestOverloadRobustOffGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_serve_off.txt")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, spec := range overloadSpecs {
		line, _ := overloadLine(t, spec, "off", 42)
		lines = append(lines, line)
	}
	got := strings.Join(lines, "\n") + "\n"
	if got != string(want) {
		t.Fatalf("robust-off serving output drifted from golden:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestOverloadRobustGolden pins the robustness layer's on-state: the shed
// and full serving lines of both gauntlet specs must stay byte-identical to
// the golden, so a change inside the layer that moves an output fails here
// and not only in a whole-program identity diff.
func TestOverloadRobustGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_serve_robust.txt")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, spec := range overloadSpecs {
		for _, level := range []string{"shed", "full"} {
			line, _ := overloadLine(t, spec, level, 42)
			lines = append(lines, level+" "+line)
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if got != string(want) {
		t.Fatalf("robust serving output drifted from golden:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestOALConservation accounts for every OAL entry logged in each gauntlet
// cell (gos.Kernel.CheckOALConservation): ingested by the master, buffered
// on a node, on the wire, in a flush awaiting admission, or lost to a drop
// or an abandoned flush. A payload the master never ingests, or one it
// ingests twice, breaks the balance.
func TestOALConservation(t *testing.T) {
	for _, spec := range overloadSpecs {
		for _, level := range overloadLevels {
			_, sess := overloadLine(t, spec, level, 42)
			k := sess.Kernel()
			if k.Stats().CorrelationLogs == 0 {
				t.Errorf("%s/%s: no OAL entry logged", spec, level)
			}
			if err := k.CheckOALConservation(); err != nil {
				t.Errorf("%s/%s: %v", spec, level, err)
			}
		}
	}
}
