package experiments

import (
	"strings"
	"testing"
)

// TestFigGFullStackWins is the acceptance check for the
// serving-through-failures figure: on every failure schedule the full
// protection stack must strictly beat both the unprotected baseline and
// shed-only on goodput-within-SLO and on P99, every protected request must
// reach a terminal state, and the protection machinery (retries, hedges,
// reroutes, breakers) must actually have fired. The figure's Violations is
// the single source of that bar — the CLI smoke run asserts the same thing.
func TestFigGFullStackWins(t *testing.T) {
	res := FigG(testScale, nil)
	if vs := res.Violations(); len(vs) > 0 {
		t.Fatalf("figure G does not hold:\n  %s\n%s",
			strings.Join(vs, "\n  "), res.Table())
	}
	// The failure layer must actually be in the loop for the full stack:
	// the breaker-on-declared-dead path is fed by lease expiries.
	for _, sched := range FigGSchedules {
		full := res.Row(sched, "full")
		if full.LeaseExpiries == 0 {
			t.Errorf("%s: full stack saw no lease expiries — the crash schedule never hit the detector", sched)
		}
	}
}
