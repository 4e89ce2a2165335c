package experiments

import (
	"strings"
	"testing"
)

// TestFigWWarmStartWins is the acceptance check for the warm-start figure:
// on the closed-loop application the warm run must converge in strictly
// fewer epochs and charge strictly less profiling overhead than cold while
// execution time stays within FigWEpsilon; on the open-loop application it
// must strictly cut the charge, serve the full schedule, and keep P99
// within FigWServeEpsilon. The figure's Violations is the single source of
// that bar — the CLI run asserts the same thing.
func TestFigWWarmStartWins(t *testing.T) {
	res := FigW(testScale, nil)
	if vs := res.Violations(); len(vs) > 0 {
		t.Fatalf("figure W does not hold:\n  %s\n%s",
			strings.Join(vs, "\n  "), res.Table())
	}
	for _, app := range FigWApps {
		for _, mode := range FigWModes {
			if res.Row(app, mode) == nil {
				t.Fatalf("missing row %s/%s", app, mode)
			}
		}
	}
	// The mechanism, not just the outcome: the warm run's saved charge must
	// come from logging less, which shows up as strictly fewer correlation
	// logs once the divergence gate parks the rate at the floor.
	for _, app := range FigWApps {
		cold, warm := res.Row(app, "cold"), res.Row(app, "warm")
		if warm.CorrLogs >= cold.CorrLogs {
			t.Errorf("%s: warm logged %d correlations, cold %d — the charge win is not rate-driven",
				app, warm.CorrLogs, cold.CorrLogs)
		}
	}
}
