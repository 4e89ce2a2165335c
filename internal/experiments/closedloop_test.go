package experiments

import (
	"strings"
	"testing"
)

// TestFigCLClosedLoopWins is the acceptance check for the closed-loop
// session API: under fault-injection scenarios, the rebalance policy acting
// every epoch must strictly beat both the passive baseline and acting once,
// must actually act, and must run at least two epochs. The grid's
// Violations is the single source of that bar — the CLI's -figCL path
// asserts the same thing.
func TestFigCLClosedLoopWins(t *testing.T) {
	res := FigCL(testScale, nil)
	if vs := res.Violations(); len(vs) > 0 {
		t.Fatalf("figure CL does not hold:\n  %s\n%s", strings.Join(vs, "\n  "), res.Table())
	}
}
