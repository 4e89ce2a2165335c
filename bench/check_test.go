package main

import (
	"testing"

	"jessica2/internal/tcm"
	"jessica2/internal/workload"
)

func TestCheckConservationRejectsTamperedLedger(t *testing.T) {
	good := workload.ServeStats{Arrived: 100, Completed: 90, Shed: 6, DeadlineExceeded: 3, FailedFast: 1}
	if err := checkConservation(&good, 100); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	for name, tamper := range map[string]func(*workload.ServeStats){
		"lost completion":  func(s *workload.ServeStats) { s.Completed-- },
		"double-counted":   func(s *workload.ServeStats) { s.Shed++ },
		"still in flight":  func(s *workload.ServeStats) { s.InFlight = 1 },
		"never arrived":    func(s *workload.ServeStats) { s.Arrived--; s.Completed-- },
		"phantom expiries": func(s *workload.ServeStats) { s.DeadlineExceeded += 2; s.Completed -= 2; s.Arrived++ },
	} {
		st := good
		tamper(&st)
		if err := checkConservation(&st, 100); err == nil {
			t.Errorf("%s: tampered ledger %+v accepted", name, st)
		}
	}
}

func TestCheckTCM(t *testing.T) {
	m := tcm.NewMap(3)
	m.Add(0, 1, 4096)
	m.Add(1, 2, 512)
	if err := checkTCM(m); err != nil {
		t.Fatalf("symmetric map rejected: %v", err)
	}
	if err := checkTCM(tcm.NewMapFromFixed(2, []int64{0, 5, 7, 0})); err == nil {
		t.Error("asymmetric map accepted")
	}
	if err := checkTCM(tcm.NewMapFromFixed(2, []int64{0, -5, -5, 0})); err == nil {
		t.Error("negative map accepted")
	}
}
