// Closedloop: the epoch-driven session API end to end. A phase-shifting
// key-value workload runs under the "phased" fault-injection scenario —
// its hot key window jumps every 120 ms — while the shipped rebalance
// policy watches the live profile at every epoch boundary and re-homes the
// newly hot objects (and migrates threads when the correlation map says
// so). The same configuration runs twice: passively (NopPolicy, identical
// to a plain run) and closed-loop, and the demo prints the per-epoch
// decisions plus the final head-to-head execution times.
package main

import (
	"fmt"

	"jessica2"
)

// run executes the demo configuration under one policy and returns the
// execution time.
func run(policy jessica2.Policy, verbose bool) jessica2.Time {
	const epoch = 50 * jessica2.Millisecond

	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = 4
	scen, err := jessica2.ScenarioPreset("phased", cfg.Kernel.Nodes, 7)
	if err != nil {
		panic(err)
	}
	cfg.Scenario = scen

	// Phase-rich KVMix: 24 short rounds, so each 120 ms scenario phase
	// spans several rounds and the policy has time to react inside one.
	kv := jessica2.NewKVMix()
	kv.Keys, kv.Rounds, kv.TxnsPerRound = 2048, 24, 24
	kv.HotSpan = 256

	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(kv, jessica2.Params{Threads: 8, Seed: 42}); err != nil {
		panic(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate}); err != nil {
		panic(err)
	}
	if err := sess.SetPolicy(policy); err != nil {
		panic(err)
	}

	// Manual stepping: pause every epoch, peek at the live profile.
	for {
		done, err := sess.Step(epoch)
		if err != nil {
			panic(err)
		}
		if verbose {
			snap := sess.Snapshot()
			fmt.Printf("  t=%-10v epoch %d: %6d faults, %5d logs, %d actions so far\n",
				snap.Now, snap.Epoch, snap.Kernel.Faults,
				snap.Kernel.CorrelationLogs, len(sess.Actions()))
		}
		if done {
			break
		}
	}

	rep, err := sess.Report()
	if err != nil {
		panic(err)
	}
	if verbose {
		moved, rehomed := 0, 0
		for _, a := range sess.Actions() {
			if a.Note != "" {
				continue
			}
			switch a.Action.(type) {
			case jessica2.MigrateThread:
				moved++
			case jessica2.RehomeObject:
				rehomed++
			}
		}
		fmt.Printf("  -> %d thread migrations, %d object re-homings\n", moved, rehomed)
	}
	return rep.ExecTime()
}

func main() {
	fmt.Println("passive baseline (NopPolicy):")
	base := run(jessica2.NopPolicy{}, false)
	fmt.Printf("  exec %v\n\n", base)

	fmt.Println("closed-loop (RebalancePolicy, 50ms epochs):")
	loop := run(jessica2.NewRebalancePolicy(), true)
	fmt.Printf("  exec %v\n\n", loop)

	fmt.Printf("closed-loop speedup: %.2fx (%v saved)\n",
		float64(base)/float64(loop), base-loop)
}
