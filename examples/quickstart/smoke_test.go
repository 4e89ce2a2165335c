package main

import (
	"testing"

	"jessica2/examples/internal/golden"
)

// TestQuickstartEndToEnd executes the example exactly as a user would: the
// smallest public-API path (NewSession → Launch → AttachProfiling → Run →
// Report/TCM) must print exactly testdata/stdout.golden.
func TestQuickstartEndToEnd(t *testing.T) { golden.Check(t, main) }
