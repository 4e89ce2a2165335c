package session

import (
	"testing"

	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sampling"
	"jessica2/internal/scenario"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// TestHotObjectsSurfaceOnce pins the Snapshot.Hot contract on a real run:
// KVMix under the phased scenario, a policy recording every boundary's hot
// list. No object may surface at two boundaries, and every object that
// surfaces must be shared by at least two threads in the final summary.
func TestHotObjectsSurfaceOnce(t *testing.T) {
	kcfg := gos.DefaultConfig()
	kcfg.Tracking = gos.TrackingSampled
	scen, err := scenario.Preset("phased", kcfg.Nodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Kernel: kcfg, Scenario: scen, Epoch: 25 * sim.Millisecond})
	if err := s.Launch(workload.NewKVMix(), workload.Params{Threads: 8, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachProfiling(core.Config{Rate: sampling.FullRate}); err != nil {
		t.Fatal(err)
	}
	p := &recordingPolicy{}
	if err := s.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	shared := make(map[int64]bool)
	for _, o := range s.Kernel().Master().Summary().Objs {
		if len(o.Threads) >= 2 {
			shared[o.Key] = true
		}
	}
	first := make(map[heap.ObjectID]int)
	for epoch, hot := range p.hot {
		for _, h := range hot {
			if at, dup := first[h.Object]; dup {
				t.Fatalf("object %d surfaced at boundaries %d and %d", h.Object, at, epoch)
			}
			first[h.Object] = epoch
			if !shared[int64(h.Object)] {
				t.Errorf("object %d surfaced at boundary %d but is not shared in the final summary", h.Object, epoch)
			}
		}
	}
	if len(first) == 0 {
		t.Fatalf("no object surfaced over %d boundaries", len(p.hot))
	}
}
