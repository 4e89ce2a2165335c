package core

import (
	"testing"

	"jessica2/internal/gos"
	"jessica2/internal/network"
	"jessica2/internal/sampling"
	"jessica2/internal/workload"
)

// TestScaleProbe runs the paper-scale benchmarks once each and reports
// simulated execution times; it is skipped in -short mode.
func TestScaleProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale probe")
	}
	apps := []struct {
		name string
		w    workload.Workload
	}{
		{"SOR-2K", workload.NewSOR()},
		{"BH-4K", workload.NewBarnesHut()},
		{"WS-512", workload.NewWaterSpatial()},
	}
	for _, app := range apps {
		app := app
		t.Run(app.name, func(t *testing.T) {
			cfg := gos.DefaultConfig()
			cfg.Tracking = gos.TrackingSampled
			k := gos.NewKernel(cfg)
			app.w.Launch(k, workload.Params{Threads: 8, Seed: 7})
			Attach(k, Config{Rate: sampling.FullRate})
			end := k.Run()
			st := k.Stats()
			net := k.Net.Stats()
			t.Logf("%s: exec=%v faults=%d logs=%d intervals=%d oalKB=%d gosKB=%d",
				app.name, end, st.Faults, st.CorrelationLogs, st.Intervals,
				net.CatBytes(network.CatOAL)/1024, net.GOSBytes()/1024)
		})
	}
}
