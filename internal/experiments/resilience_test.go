package experiments

import (
	"testing"

	"jessica2/internal/sim"
)

// TestFigRRecoveryWins is the acceptance check for the failure-tolerance
// layer: under every crash schedule, the recovery mode (failure detection +
// evacuation + health-gated closed loop) must strictly beat both the
// fail-free runtime and one-shot placement, and the detector must actually
// have fired. The figure's Violations is the single source of that bar — the
// CLI's -figR path asserts the same thing.
func TestFigRRecoveryWins(t *testing.T) {
	res := FigR(testScale, nil)
	wantRows := 1 + 3*len(FigRSchedules)
	if len(res.Cells) != wantRows {
		t.Fatalf("rows: got %d want %d", len(res.Cells), wantRows)
	}
	for _, v := range res.Violations() {
		t.Error(v)
	}
	rec := res.Row("early-crash", "recovery")
	if rec == nil {
		t.Fatal("missing early-crash/recovery row")
	}
	// The health gate exists because the blind planner tries to refill a
	// dead node; at least one schedule should exercise it.
	vetoed := 0
	for _, c := range res.Cells {
		vetoed += c.Row.Vetoed
	}
	if vetoed == 0 {
		t.Log("health gate never vetoed an action (planner stayed off dead nodes)")
	}
}

// TestOALConservation accounts for every OAL entry logged in each Figure R
// cell, the crash-free pilot and every crash schedule and mode, and in each
// Figure G cell (gos.Kernel.CheckOALConservation): ingested by the master,
// buffered on a node, on the wire, in a flush awaiting admission, or lost
// to a drop or an abandoned flush.
func TestOALConservation(t *testing.T) {
	check := func(name string, cell sessionCell) sim.Time {
		s, exec, err := cell.run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Kernel().CheckOALConservation(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		return exec
	}
	base := check("FigR -/crash-free", figRPilot(testScale))
	for _, sched := range FigRSchedules {
		for _, mode := range FigRModes[1:] {
			cell, _ := figRCell(testScale, sched, mode, base)
			check("FigR "+sched+"/"+mode, cell)
		}
	}
	for _, sched := range FigGSchedules {
		for _, mode := range FigGModes {
			cell, _ := figGCell(testScale, sched, mode)
			check("FigG "+sched+"/"+mode, cell)
		}
	}
}
