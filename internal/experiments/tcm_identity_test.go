package experiments

import (
	"fmt"
	"slices"
	"testing"

	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/session"
	"jessica2/internal/tcm"
	"jessica2/internal/workload"
)

// TestMasterMatchesFullRebuild checks the master's incremental builder
// against a full rebuild on real workloads: after a run, the master's live
// map must equal, bit for bit, the map rebuilt from the master's own
// per-object summary by the paper's accrual pass, which adds each object's
// weight into its sorted thread pairs in key order. The paper's three apps
// run with sampled tracking, once with the master ingesting records and
// once with DistributedTCM, where it ingests worker summaries instead; the
// KVMix and synthetic closed-loop probes add policy-driven runs.
func TestMasterMatchesFullRebuild(t *testing.T) {
	check := func(t *testing.T, s *session.Session) {
		t.Helper()
		k := s.Kernel()
		n := k.NumThreads()
		want := tcm.NewMap(n)
		for _, o := range k.Master().Summary().Objs { // sorted by key, threads ascending
			for i, ti := range o.Threads {
				for _, tj := range o.Threads[i+1:] {
					want.Add(int(ti), int(tj), o.Bytes)
				}
			}
		}
		if want.Total() == 0 {
			t.Fatal("no object is shared by two threads")
		}
		if !slices.Equal(k.Master().Peek(n).AppendCellBits(nil), want.AppendCellBits(nil)) {
			t.Fatal("the master's live map differs from the full rebuild of its summary")
		}
	}
	for _, distributed := range []bool{false, true} {
		for _, app := range Apps {
			t.Run(fmt.Sprintf("%v/distributed=%v", app, distributed), func(t *testing.T) {
				kcfg := gos.DefaultConfig()
				kcfg.Tracking = gos.TrackingSampled
				kcfg.DistributedTCM = distributed
				s := session.New(session.Config{Kernel: kcfg})
				if err := s.Launch(NewWorkload(app, false, testScale), workload.Params{Threads: 8, Seed: 42}); err != nil {
					t.Fatal(err)
				}
				if _, err := s.AttachProfiling(core.Config{Rate: 4}); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
				check(t, s)
			})
		}
	}
	for _, load := range []string{"kv", "synth"} {
		t.Run("probe/"+load, func(t *testing.T) {
			s, _ := ClosedLoopProbe(16, load)
			check(t, s)
		})
	}
}
