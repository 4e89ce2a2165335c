// N-body example: run Barnes-Hut (two galaxies) under the adaptive
// sampling-rate controller and watch it walk the rate ladder until the
// correlation maps converge, then use the final map to plan a
// correlation-driven thread placement.
//
// This demonstrates the paper's central loop: sample cheaply, check
// relative accuracy between successive maps, raise the rate only while it
// still changes the picture, and hand the converged map to the balancer.
package main

import (
	"fmt"

	"jessica2"
)

func main() {
	const threads = 16

	cfg := jessica2.DefaultConfig()
	sess := jessica2.NewSession(cfg)

	bh := jessica2.NewBarnesHut()
	bh.NBodies = 1024 // quarter scale for a quick run; 4096 = paper scale
	if err := sess.Launch(bh, jessica2.Params{Threads: threads, Seed: 7}); err != nil {
		panic(err)
	}

	adaptive := jessica2.DefaultAdaptiveConfig()
	adaptive.Window = 200 * jessica2.Millisecond
	adaptive.Threshold = 0.05 // stop once successive maps agree within 5%
	prof, err := sess.AttachProfiling(jessica2.ProfileConfig{Adaptive: &adaptive})
	if err != nil {
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

	fmt.Println("adaptive controller trace (rate ladder):")
	for _, rc := range prof.RateTrace {
		fmt.Printf("  t=%-10v %5v -> %-5v relative-distance=%.4f converged=%v\n",
			rc.At, rc.From, rc.To, rc.Distance, rc.Converged)
	}
	fmt.Println()

	m := rep.TCM()
	fmt.Println("converged correlation map (two galaxy blocks expected):")
	fmt.Println(m)

	// Feed the map to the global load balancer: starting from the
	// spawn-order (blocked) placement, how much cross-node sharing can
	// migration remove?
	cur := jessica2.BlockedPlacement(threads, cfg.Kernel.Nodes)
	next, moves := jessica2.PlanPlacement(m, cur, cfg.Kernel.Nodes)
	fmt.Printf("balancer: cross-node volume %.0f B -> %.0f B with %d moves\n",
		jessica2.CrossVolume(m, cur), jessica2.CrossVolume(m, next), len(moves))
	for _, mv := range moves {
		fmt.Printf("  %v\n", mv)
	}
}
