// Home-aware optimization example: the paper's §VI future-work items
// working together. A Water-Spatial run is profiled with the distributed
// TCM reduction (workers pre-reduce their OALs); the resulting correlation
// map, thread×home affinity matrix, and per-object summaries then drive
// three optimizations:
//
//  1. a home-aware placement plan (threads move toward the nodes homing
//     their data — including the "tricky case" where a thread pair shares
//     objects homed at neither of their nodes);
//  2. object home-migration advice (objects whose accessors all live on
//     one node get re-homed there);
//  3. a comparison of the planned placement's cross-node volume against
//     the spawn-order default.
package main

import (
	"fmt"

	"jessica2"
)

func main() {
	const threads, nodes = 8, 4

	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = nodes
	cfg.Kernel.DistributedTCM = true // §VI: workers pre-reduce OALs
	sess := jessica2.NewSession(cfg)

	ws := jessica2.NewWaterSpatial()
	ws.NMol, ws.Rounds = 256, 3
	ws.PairCost = 4 * jessica2.Microsecond
	if err := sess.Launch(ws, jessica2.Params{Threads: threads, Seed: 9}); err != nil {
		panic(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate}); err != nil {
		panic(err)
	}

	if _, err := sess.Run(); err != nil {
		panic(err)
	}
	rep, err := sess.Report()
	if err != nil {
		panic(err)
	}
	fmt.Println(rep)

	m := rep.TCM()
	aff := rep.HomeAffinity()
	fmt.Println("thread x home-node affinity (KB of accessed data homed per node):")
	for t, row := range aff {
		fmt.Printf("  T%d:", t)
		for _, v := range row {
			fmt.Printf(" %6.0f", v/1024)
		}
		fmt.Println()
	}
	fmt.Println()

	// homeLocal measures how much of each thread's accessed data is homed
	// on its own node under a placement — the quantity the home term
	// optimizes (cross-thread volume alone misses it).
	homeLocal := func(a jessica2.Assignment) (v float64) {
		for t, node := range a {
			v += aff[t][node]
		}
		return v
	}
	cur := jessica2.BlockedPlacement(threads, nodes)
	blind, _ := jessica2.PlanPlacement(m, cur, nodes)
	aware, moves := jessica2.PlanPlacementHomeAware(m, cur, nodes, aff, 0.5)
	fmt.Println("placement             cross-thread volume   home-local volume")
	for _, row := range []struct {
		name string
		a    jessica2.Assignment
	}{{"blocked (default)", cur}, {"pair-only plan", blind}, {"home-aware plan", aware}} {
		fmt.Printf("  %-20s %12.0f B %16.0f B\n", row.name,
			jessica2.CrossVolume(m, row.a), homeLocal(row.a))
	}
	for _, mv := range moves {
		fmt.Printf("  home-aware move: %v\n", mv)
	}
	fmt.Println()

	advice := rep.AdviseHomeMigrations(aware, 64)
	fmt.Printf("home-migration advice under the new placement: %d objects\n", len(advice))
	for i, mv := range advice {
		if i >= 6 {
			fmt.Printf("  ... and %d more\n", len(advice)-i)
			break
		}
		fmt.Printf("  obj %d: node%d -> node%d (%d B)\n", mv.Obj, mv.From, mv.To, mv.Bytes)
	}
	if len(advice) == 0 {
		fmt.Println("  (none: every molecule is read by threads on several nodes — the")
		fmt.Println("   advisor only re-homes objects with a unanimous accessor node)")
	}
}
