package experiments

import (
	"strings"
	"testing"
)

// TestFigTClosedLoopWins is the acceptance check for the open-loop traffic
// figure: on every arrival schedule the closed-loop placement must strictly
// beat both the passive baseline and the one-shot placement on P99 latency,
// with every request served. The figure's Violations is the single source of
// that bar — the CLI smoke run asserts the same thing.
func TestFigTClosedLoopWins(t *testing.T) {
	res := FigT(testScale, nil)
	if vs := res.Violations(); len(vs) > 0 {
		t.Fatalf("figure T does not hold:\n  %s\n%s",
			strings.Join(vs, "\n  "), res.Table())
	}
	// The mechanism, not just the outcome: the closed loop must be chasing
	// the rotating hot window, which shows up as strictly fewer faults than
	// the baseline that never moves a home.
	for _, sched := range FigTSchedules {
		nop, closed := res.Row(sched, "nop"), res.Row(sched, "closed-loop")
		if closed.Faults >= nop.Faults {
			t.Errorf("%s: closed-loop faulted %d times, nop only %d — the P99 win is not placement-driven",
				sched, closed.Faults, nop.Faults)
		}
	}
}
