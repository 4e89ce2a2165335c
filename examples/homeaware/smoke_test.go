package main

import (
	"testing"

	"jessica2/examples/internal/golden"
)

// TestHomeawareEndToEnd executes the example end-to-end: a distributed-TCM
// run, its home-affinity matrix, the home-aware placement plan and the
// home-migration advice must print exactly testdata/stdout.golden.
func TestHomeawareEndToEnd(t *testing.T) { golden.Check(t, main) }
