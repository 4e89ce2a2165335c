package main

import (
	"testing"

	"jessica2"
	"jessica2/examples/internal/golden"
)

// TestClosedLoopEndToEnd executes the example exactly as a user would: the
// epoch-stepped session path (NewSession → Launch → AttachProfiling →
// SetPolicy → Step/Snapshot loop → Report) must print exactly
// testdata/stdout.golden, and the closed-loop run must beat the passive
// baseline on the same seed.
func TestClosedLoopEndToEnd(t *testing.T) {
	golden.Check(t, main)
	base := run(jessica2.NopPolicy{}, false)
	loop := run(jessica2.NewRebalancePolicy(), false)
	if loop >= base {
		t.Fatalf("closed-loop %v did not beat baseline %v", loop, base)
	}
}
