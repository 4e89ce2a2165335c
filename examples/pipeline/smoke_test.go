package main

import (
	"testing"

	"jessica2/examples/internal/golden"
)

// TestPipelineEndToEnd executes the example end-to-end: a custom workload
// written against the public API (locks, barriers, shadow stacks), full
// correlation tracking, and a balancer plan over the resulting TCM must
// print exactly testdata/stdout.golden.
func TestPipelineEndToEnd(t *testing.T) { golden.Check(t, main) }
