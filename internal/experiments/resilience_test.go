package experiments

import "testing"

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
