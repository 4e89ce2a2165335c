package jessica2_test

import (
	"testing"

	"jessica2"
)

// clKVMix is the closed-loop demo workload: phase-rich KVMix sized so the
// phased scenario's 120 ms shifts land mid-run and each phase spans several
// rounds (giving an online policy time to react inside a phase).
func clKVMix() *jessica2.KVMix {
	k := jessica2.NewKVMix()
	k.Keys, k.ValueSize = 2048, 128
	k.Rounds, k.TxnsPerRound, k.OpsPerTxn = 24, 24, 4
	k.HotSpan = 256
	return k
}

// clRun executes the demo configuration under the given policy and epoch
// count and returns the exec time. Epoch length is calibrated from a fixed
// nominal duration so both runs step identically.
func clRun(t *testing.T, policy jessica2.Policy, epochs int) (jessica2.Time, *jessica2.Session) {
	t.Helper()
	const nominal = 800 * jessica2.Millisecond
	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = 4
	cfg.Epoch = nominal / jessica2.Time(epochs)
	scen, err := jessica2.ScenarioPreset("phased", cfg.Kernel.Nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = scen
	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(clKVMix(), jessica2.Params{Threads: 8, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate}); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetPolicy(policy); err != nil {
		t.Fatal(err)
	}
	rep := runReport(t, sess)
	return rep.ExecTime(), sess
}

// TestClosedLoopBeatsNop is the closed-loop demo assertion: on KVMix under
// the phased scenario, the rebalance policy with multiple epochs must
// strictly beat the passive baseline on the same seed.
func TestClosedLoopBeatsNop(t *testing.T) {
	nop, _ := clRun(t, jessica2.NopPolicy{}, 8)
	reb, sess := clRun(t, jessica2.NewRebalancePolicy(), 8)
	t.Logf("nop=%v rebalance=%v (%.1f%%) actions=%d", nop, reb,
		100*float64(nop-reb)/float64(nop), len(sess.Actions()))
	if reb >= nop {
		t.Fatalf("closed-loop rebalance did not improve: nop=%v rebalance=%v", nop, reb)
	}
}
