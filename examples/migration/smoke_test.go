package main

import (
	"testing"

	"jessica2/examples/internal/golden"
)

// TestMigrationEndToEnd executes the example end-to-end: a custom workload
// that migrates a thread cold and with its sticky set prefetched must print
// exactly testdata/stdout.golden.
func TestMigrationEndToEnd(t *testing.T) { golden.Check(t, main) }
