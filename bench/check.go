package main

import (
	"fmt"
	"math"
	"slices"

	"jessica2/internal/experiments"
	"jessica2/internal/tcm"
	"jessica2/internal/workload"
)

// checkTCM requires a symmetric correlation map with finite, non-negative
// cells.
func checkTCM(m *tcm.Map) error {
	n := m.N()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			a, b := m.At(i, j), m.At(j, i)
			if a != b {
				return fmt.Errorf("TCM not symmetric: [%d][%d]=%g, [%d][%d]=%g", i, j, a, j, i, b)
			}
			if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("TCM cell [%d][%d]=%g is not a finite non-negative volume", i, j, a)
			}
		}
	}
	return nil
}

// checkConservation requires every scheduled request to have arrived and
// reached exactly one terminal state: completed, shed, expired or failed
// fast, with none still in flight.
func checkConservation(st *workload.ServeStats, scheduled int) error {
	terminal := st.Completed + int(st.Shed+st.DeadlineExceeded+st.FailedFast)
	if st.Arrived != scheduled || st.InFlight != 0 || terminal != st.Arrived {
		return fmt.Errorf("requests not conserved: scheduled %d, arrived %d = completed %d + shed %d + expired %d + failed-fast %d + in flight %d",
			scheduled, st.Arrived, st.Completed, st.Shed, st.DeadlineExceeded, st.FailedFast, st.InFlight)
	}
	return nil
}

// checkSameRun requires the session path to reproduce experiments.Run on
// the same spec: equal execution time and bit-identical TCM cells.
func checkSameRun(it *iteration, ref *experiments.Out) error {
	if it.simExec != ref.Exec {
		return fmt.Errorf("session exec %v differs from experiments.Run exec %v", it.simExec, ref.Exec)
	}
	if it.tcm == nil || ref.TCM == nil || !slices.Equal(it.tcm.AppendCellBits(nil), ref.TCM.AppendCellBits(nil)) {
		return fmt.Errorf("session TCM differs from experiments.Run TCM")
	}
	return nil
}
