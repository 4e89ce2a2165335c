package jessica2_test

import (
	"fmt"
	"strings"
	"testing"

	"jessica2"
)

// chaosWorkload is the chaos suite's medium KVMix: long enough (~seconds of
// virtual time) that every event of the crash (200/700/900 ms) and
// partition (300/1100 ms) presets lands inside the run.
func chaosWorkload() jessica2.Workload {
	k := jessica2.NewKVMix()
	k.Keys, k.Rounds, k.TxnsPerRound = 1024, 12, 24
	k.HotSpan = 128
	return k
}

// chaosTrace runs the chaos workload under the given scenario presets, with
// the failure-tolerance layer optionally armed, and renders every
// externally observable result — including the failure counters and final
// cluster health — into one string for byte comparison.
func chaosTrace(t *testing.T, presets string, recover bool, seed uint64) (string, jessica2.FailureStats) {
	t.Helper()
	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = 4
	// A low flush threshold forces dedicated CatOAL messages (lock-heavy
	// workloads otherwise piggyback their whole OAL on control traffic,
	// which failure injection never touches).
	cfg.Kernel.OALFlushEntries = 8
	scen, err := jessica2.ParseScenario(presets, cfg.Kernel.Nodes, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = scen
	if recover {
		cfg.Kernel.Failure = jessica2.DefaultFailureConfig()
	}
	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(chaosWorkload(), jessica2.Params{Threads: 6, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: 4}); err != nil {
		t.Fatal(err)
	}
	rep := runReport(t, sess)

	fs := sess.Kernel().FailureStats()
	var sb strings.Builder
	sb.WriteString(rep.String())
	fmt.Fprintf(&sb, "kernel: %+v\n", rep.KernelStats())
	fmt.Fprintf(&sb, "net: %v", rep.NetworkStats())
	fmt.Fprintf(&sb, "oal=%d gos=%d\n", rep.OALBytes(), rep.GOSBytes())
	sb.WriteString(rep.TCM().String())
	fmt.Fprintf(&sb, "failure: %+v\n", fs)
	if h := sess.Kernel().HealthInto(nil); h != nil {
		fmt.Fprintf(&sb, "health: %d/%d alive\n", h.LiveNodes, cfg.Kernel.Nodes)
	}
	return sb.String(), fs
}

// TestChaosDeterminism is the golden determinism suite under failure
// injection: each failure preset combination, with and without the
// recovery layer, must produce byte-identical traces across same-seed
// runs — crash schedules, lossy flushes, partitions, detection, retries
// and evacuation are all part of the deterministic simulation.
func TestChaosDeterminism(t *testing.T) {
	for _, presets := range []string{"crash", "flaky", "partition", "crash,flaky"} {
		presets := presets
		for _, recover := range []bool{false, true} {
			recover := recover
			name := presets
			if recover {
				name += "+recover"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				run1, _ := chaosTrace(t, presets, recover, 42)
				run2, _ := chaosTrace(t, presets, recover, 42)
				if run1 != run2 {
					t.Fatalf("same-seed chaos runs diverged:\n--- run 1\n%s\n--- run 2\n%s", run1, run2)
				}
			})
		}
	}
}

// TestChaosRecoveryLayerActs: under the crash preset the armed failure
// layer must actually detect, evacuate and recover — and change the trace
// relative to the fail-free runtime (the layer is not a no-op).
func TestChaosRecoveryLayerActs(t *testing.T) {
	bare, bareStats := chaosTrace(t, "crash", false, 42)
	rec, recStats := chaosTrace(t, "crash", true, 42)
	if bareStats != (jessica2.FailureStats{}) {
		t.Fatalf("failure counters moved without the layer armed: %+v", bareStats)
	}
	if recStats.LeaseExpiries == 0 {
		t.Error("crash preset never expired a lease")
	}
	if recStats.Evacuations == 0 {
		t.Error("crash preset never evacuated a thread")
	}
	if recStats.NodeRecoveries == 0 {
		t.Error("the preset's transient crash (node 1 restarts at 700ms) never revived")
	}
	if bare == rec {
		t.Error("armed failure layer left the crash trace unchanged")
	}
}

// TestChaosFlakyFlushesRecovered: under the flaky preset (15% flush loss,
// 10% duplication) the reliable-flush machinery must retry drops and
// discard duplicates.
func TestChaosFlakyFlushesRecovered(t *testing.T) {
	_, fs := chaosTrace(t, "flaky", true, 42)
	if fs.FlushesSent == 0 {
		t.Fatal("no dedicated flushes sent")
	}
	if fs.FlushRetries == 0 {
		t.Error("15% drop rate never triggered a retry")
	}
	if fs.DuplicateFlushes == 0 {
		t.Error("10% duplication rate never triggered the dedup")
	}
	if fs.FlushesAcked == 0 {
		t.Error("no flush was ever acknowledged")
	}
}

// healthWatcher is the test policy consuming the snapshot's Health view:
// it records node-death observations, heartbeat staleness and the failure
// counters as the closed loop sees them, epoch by epoch.
type healthWatcher struct {
	sawDead     bool
	sawStale    bool
	sawRevived  bool
	maxExpiries int64
	maxRetries  int64
}

func (w *healthWatcher) Name() string { return "health-watcher" }

// NeedsProfile triggers the per-boundary cluster-wide flush, so the lossy
// flush path is exercised mid-run, not just at finish.
func (w *healthWatcher) NeedsProfile() bool { return true }

func (w *healthWatcher) Observe(snap *jessica2.Snapshot) []jessica2.Action {
	h := snap.Health
	if h == nil {
		return nil
	}
	deadNow := false
	for _, nh := range h.Nodes {
		if !nh.Alive {
			w.sawDead = true
			deadNow = true
			if snap.Now-nh.LastBeat > 50*jessica2.Millisecond {
				w.sawStale = true
			}
		}
	}
	if w.sawDead && !deadNow {
		w.sawRevived = true
	}
	if h.Stats.LeaseExpiries > w.maxExpiries {
		w.maxExpiries = h.Stats.LeaseExpiries
	}
	if r := h.Stats.FlushRetries + h.Stats.FlushesAbandoned; r > w.maxRetries {
		w.maxRetries = r
	}
	return nil
}

// TestChaosHealthPolicy steps a crash+flaky session with the health
// watcher installed: the Snapshot must expose node liveness, heartbeat
// staleness and the retry counters to policies while the run is live.
func TestChaosHealthPolicy(t *testing.T) {
	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = 4
	scen, err := jessica2.ParseScenario("crash,flaky", cfg.Kernel.Nodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = scen
	cfg.Kernel.Failure = jessica2.DefaultFailureConfig()
	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(chaosWorkload(), jessica2.Params{Threads: 6, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: 4}); err != nil {
		t.Fatal(err)
	}
	w := &healthWatcher{}
	if err := sess.SetPolicy(w); err != nil {
		t.Fatal(err)
	}
	for {
		done, err := sess.Step(50 * jessica2.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if !w.sawDead {
		t.Error("policy never observed a dead node through Snapshot.Health")
	}
	if !w.sawStale {
		t.Error("policy never observed heartbeat staleness")
	}
	if !w.sawRevived {
		t.Error("policy never observed node 1's restart as a revival")
	}
	if w.maxExpiries == 0 {
		t.Error("lease-expiry counter never surfaced in snapshots")
	}
	if w.maxRetries == 0 {
		t.Error("flush retry/abandonment counters never surfaced in snapshots")
	}
}
