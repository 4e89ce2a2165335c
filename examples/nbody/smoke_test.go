package main

import (
	"testing"

	"jessica2/examples/internal/golden"
)

// TestNbodyEndToEnd executes the example end-to-end: Barnes-Hut under the
// adaptive rate controller, its rate ladder, the converged map and the
// balancer plan over it must print exactly testdata/stdout.golden.
func TestNbodyEndToEnd(t *testing.T) { golden.Check(t, main) }
