package session

import (
	"testing"

	"jessica2/internal/balancer"
	"jessica2/internal/heap"
	"jessica2/internal/tcm"
)

// rehomesOf collects the object→node re-homes among acts.
func rehomesOf(acts []Action) map[int]int {
	out := map[int]int{}
	for _, a := range acts {
		if r, ok := a.(RehomeObject); ok {
			out[int(r.Object)] = r.To
		}
	}
	return out
}

// TestRebalancePolicyObserve drives the shipped policy with hand-built
// snapshots and pins its default tuning: the sharing threshold, re-homing
// toward accessors, dropping moves of finished threads, and the load-aware
// spread of hot homes.
func TestRebalancePolicyObserve(t *testing.T) {
	t.Run("single accessor is not re-homed", func(t *testing.T) {
		acts := NewRebalancePolicy().Observe(&Snapshot{
			Nodes: 2, Threads: 2, Assignment: balancer.Assignment{0, 1},
			Hot: []HotObject{{Object: 1, Home: 0, Volume: 100, Threads: []int32{1}}},
		})
		if len(acts) != 0 {
			t.Fatalf("one-accessor object drew actions %v", acts)
		}
	})

	t.Run("re-homed toward its accessors", func(t *testing.T) {
		acts := NewRebalancePolicy().Observe(&Snapshot{
			Nodes: 2, Threads: 3, Assignment: balancer.Assignment{0, 1, 1},
			Hot: []HotObject{{Object: 2, Home: 0, Volume: 100, Threads: []int32{1, 2}}},
		})
		if got := rehomesOf(acts); len(got) != 1 || got[2] != 1 {
			t.Fatalf("re-homes = %v, want object 2 to node 1", got)
		}
	})

	t.Run("finished thread's move is dropped", func(t *testing.T) {
		// Thread 2 sits alone on node 1 and shares heavily with threads 0
		// and 1 on node 0, so the planner's one move is 2 → node 0.
		snap := func(finished []bool) *Snapshot {
			m := tcm.NewMap(3)
			m.Set(0, 1, 1e6)
			m.Set(0, 2, 1e6)
			m.Set(1, 2, 1e6)
			return &Snapshot{
				Nodes: 2, Threads: 3, Assignment: balancer.Assignment{0, 0, 1},
				Finished: finished, TCM: m,
			}
		}
		acts := NewRebalancePolicy().Observe(snap([]bool{false, false, false}))
		if len(acts) != 1 || acts[0] != (MigrateThread{Thread: 2, To: 0, Prefetch: true}) {
			t.Fatalf("live thread: actions %v, want one prefetching move of thread 2 to node 0", acts)
		}
		if acts := NewRebalancePolicy().Observe(snap([]bool{false, false, true})); len(acts) != 0 {
			t.Fatalf("finished thread: actions %v, want none", acts)
		}
	})

	t.Run("hot homes spread by load", func(t *testing.T) {
		hot := make([]HotObject, 3)
		for i := range hot {
			hot[i] = HotObject{Object: heap.ObjectID(10 + i), Home: 0, Volume: 100, Threads: []int32{0, 1}}
		}
		acts := NewRebalancePolicy().Observe(&Snapshot{
			Nodes: 2, Threads: 2, Assignment: balancer.Assignment{0, 0}, Hot: hot,
		})
		moved := 0
		for _, to := range rehomesOf(acts) {
			if to != 0 {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("three equal hot objects of node 0 all stayed home: actions %v", acts)
		}
	})
}
