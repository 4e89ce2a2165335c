package gos

import (
	"fmt"
	"testing"

	"jessica2/internal/heap"
	"jessica2/internal/network"
	"jessica2/internal/oal"
	"jessica2/internal/sim"
)

// fastFailureConfig returns aggressive timings so tests converge in a few
// virtual milliseconds.
func fastFailureConfig() *FailureConfig {
	return &FailureConfig{
		HeartbeatInterval: 1 * sim.Millisecond,
		LeaseTimeout:      3 * sim.Millisecond,
		SweepInterval:     1 * sim.Millisecond,
		FlushTimeout:      2 * sim.Millisecond,
		FlushBackoff:      1 * sim.Millisecond,
		MaxFlushBackoff:   8 * sim.Millisecond,
		MaxFlushRetries:   4,
	}
}

// failureKernel builds a kernel with the failure layer enabled.
func failureKernel(nodes int, mode TrackingMode, fc *FailureConfig) *Kernel {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.Tracking = mode
	cfg.Failure = fc
	return NewKernel(cfg)
}

// spinBody runs iters × (compute slice + one local read): a thread with
// a safe point at every iteration.
func spinBody(iters int, slice sim.Time, cls *heap.Class) func(*Thread) {
	return func(th *Thread) {
		o := th.Alloc(cls)
		for i := 0; i < iters; i++ {
			th.Compute(slice)
			th.Read(o)
		}
	}
}

func TestLeaseExpiryEvacuatesThreads(t *testing.T) {
	k := failureKernel(3, TrackingOff, fastFailureConfig())
	cls := k.Reg.DefineClass("X", 64, 0)
	victim := k.SpawnThread(1, "victim", spinBody(100, 200*sim.Microsecond, cls))
	k.SpawnThread(2, "bystander", spinBody(100, 200*sim.Microsecond, cls))
	// Crash node 1: CPU crawls below the heartbeat suspension threshold.
	cpu := k.Node(1).CPU()
	k.Eng.Schedule(5*sim.Millisecond, func() { cpu.SetSpeed(0.05) })
	k.Run()

	fs := k.FailureStats()
	if fs.LeaseExpiries == 0 {
		t.Fatal("no lease expiry despite silenced node")
	}
	if fs.HeartbeatsSkipped == 0 {
		t.Error("crawling node kept emitting heartbeats")
	}
	if fs.Evacuations != 1 {
		t.Fatalf("evacuations = %d, want 1", fs.Evacuations)
	}
	if got := victim.Node().ID(); got == 1 {
		t.Fatalf("victim still on dead node %d", got)
	}
	if !victim.Finished() {
		t.Fatal("victim never finished")
	}
	h := k.HealthInto(nil)
	if h == nil {
		t.Fatal("HealthInto returned nil with failure layer on")
	}
	if h.LiveNodes != 2 {
		t.Errorf("live nodes = %d, want 2", h.LiveNodes)
	}
	if h.Nodes[1].Alive {
		t.Error("node 1 reported alive after permanent crash")
	}
}

func TestHeartbeatResumptionRevivesNode(t *testing.T) {
	k := failureKernel(3, TrackingOff, fastFailureConfig())
	cls := k.Reg.DefineClass("X", 64, 0)
	k.SpawnThread(1, "victim", spinBody(200, 200*sim.Microsecond, cls))
	k.SpawnThread(2, "bystander", spinBody(200, 200*sim.Microsecond, cls))
	cpu := k.Node(1).CPU()
	k.Eng.Schedule(5*sim.Millisecond, func() { cpu.SetSpeed(0.05) })
	k.Eng.Schedule(15*sim.Millisecond, func() { cpu.SetSpeed(1) })
	k.Run()

	fs := k.FailureStats()
	if fs.LeaseExpiries == 0 {
		t.Fatal("no lease expiry during the outage")
	}
	if fs.NodeRecoveries == 0 {
		t.Fatal("restarted node never revived")
	}
	if h := k.HealthInto(nil); h.LiveNodes != 3 {
		t.Errorf("live nodes = %d after recovery, want 3", h.LiveNodes)
	}
}

// dropFirstN drops the first N messages whose primary category is CatOAL.
type dropFirstN struct{ n int }

func (d *dropFirstN) Intercept(_ sim.Time, _, _ network.NodeID, primary network.Category, _ int) network.Verdict {
	if primary == network.CatOAL && d.n > 0 {
		d.n--
		return network.Verdict{Drop: true}
	}
	return network.Verdict{}
}

// dupAll duplicates every dedicated OAL flush.
type dupAll struct{}

func (dupAll) Intercept(_ sim.Time, _, _ network.NodeID, primary network.Category, _ int) network.Verdict {
	return network.Verdict{Duplicate: primary == network.CatOAL}
}

// dropAllOAL loses every dedicated OAL flush.
type dropAllOAL struct{}

func (dropAllOAL) Intercept(_ sim.Time, _, _ network.NodeID, primary network.Category, _ int) network.Verdict {
	return network.Verdict{Drop: primary == network.CatOAL}
}

// flushKernel builds a 2-node kernel where every interval close emits a
// dedicated one-entry OAL flush from node 1.
func flushKernel(t *testing.T, fc *FailureConfig, icept network.Interceptor, rounds int) *Kernel {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.Tracking = TrackingExact
	cfg.OALFlushEntries = 1
	cfg.Failure = fc
	k := NewKernel(cfg)
	k.Net.SetInterceptor(icept)
	cls := k.Reg.DefineClass("X", 64, 0)
	k.SpawnThread(1, "worker", func(th *Thread) {
		o := th.Alloc(cls)
		for i := 0; i < rounds; i++ {
			th.Acquire(0)
			th.Read(o)
			th.Release(0) // closes the interval → dedicated flush
		}
	})
	return k
}

func TestFlushRetryRecoversDroppedFlushes(t *testing.T) {
	k := flushKernel(t, fastFailureConfig(), &dropFirstN{n: 2}, 10)
	k.Run()
	fs := k.FailureStats()
	if fs.FlushesSent != 10 {
		t.Fatalf("flushes sent = %d, want 10", fs.FlushesSent)
	}
	if fs.FlushRetries < 2 {
		t.Fatalf("flush retries = %d, want >= 2 (two drops)", fs.FlushRetries)
	}
	if fs.FlushesAcked != 10 {
		t.Fatalf("flushes acked = %d, want 10", fs.FlushesAcked)
	}
	if fs.FlushesAbandoned != 0 {
		t.Fatalf("flushes abandoned = %d, want 0", fs.FlushesAbandoned)
	}
	if got, want := k.Master().IngestedEntries(), k.Stats().OALEntries; got != want {
		t.Fatalf("ingested %d entries, node buffered %d — retry lost or double-counted data", got, want)
	}
	if h := k.HealthInto(nil); h.Nodes[1].LastAckAt == 0 {
		t.Error("LastAckAt never advanced on the flushing node")
	}
}

func TestFlushDedupDiscardsDuplicates(t *testing.T) {
	k := flushKernel(t, fastFailureConfig(), dupAll{}, 10)
	k.Run()
	fs := k.FailureStats()
	if fs.DuplicateFlushes == 0 {
		t.Fatal("duplicated deliveries were never deduplicated")
	}
	if fs.FlushesAcked != fs.FlushesSent {
		t.Fatalf("acked %d of %d flushes", fs.FlushesAcked, fs.FlushesSent)
	}
	if got, want := k.Master().IngestedEntries(), k.Stats().OALEntries; got != want {
		t.Fatalf("ingested %d entries, node buffered %d — a duplicate was double-ingested", got, want)
	}
}

// TestDuplicatedFlushIngestedOnce: with the failure layer off, a flush the
// network delivers twice is ingested once, so its records go back to the
// pool once and no record can be live in two intervals.
func TestDuplicatedFlushIngestedOnce(t *testing.T) {
	k := flushKernel(t, nil, dupAll{}, 10)
	k.Run()
	if k.Net.Stats().Duplicated == 0 {
		t.Fatal("no flush was duplicated")
	}
	if got, want := k.Master().IngestedEntries(), k.Stats().CorrelationLogs; got != want {
		t.Fatalf("master ingested %d of %d logged entries", got, want)
	}
	pooled := make(map[*oal.Record]bool)
	for _, r := range k.recPool {
		if pooled[r] {
			t.Fatalf("record %p is in the pool twice", r)
		}
		pooled[r] = true
	}
	if err := k.CheckOALConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushAbandonmentIsBounded: with every dedicated flush lost, the
// retry machinery gives up after MaxFlushRetries instead of spinning
// forever — profiling is advisory, liveness wins.
func TestFlushAbandonmentIsBounded(t *testing.T) {
	k := flushKernel(t, fastFailureConfig(), dropAllOAL{}, 5)
	k.Run()
	fs := k.FailureStats()
	if fs.FlushesAbandoned != fs.FlushesSent {
		t.Fatalf("abandoned %d of %d flushes, want all", fs.FlushesAbandoned, fs.FlushesSent)
	}
	if fs.FlushRetries != fs.FlushesSent*int64(k.fcfg.MaxFlushRetries) {
		t.Fatalf("retries = %d, want %d (bounded)", fs.FlushRetries, fs.FlushesSent*int64(k.fcfg.MaxFlushRetries))
	}
	if got := k.Master().IngestedEntries(); got != 0 {
		t.Fatalf("ingested %d entries with all flushes lost", got)
	}
}

// delayOAL holds every dedicated OAL flush on the wire for d.
type delayOAL struct{ d sim.Time }

func (o delayOAL) Intercept(_ sim.Time, _, _ network.NodeID, primary network.Category, _ int) network.Verdict {
	if primary == network.CatOAL {
		return network.Verdict{Delay: o.d}
	}
	return network.Verdict{}
}

// TestOALLedgerBooksLostFlushes: the entries of a flush the network drops
// (failure layer off) or the failure layer abandons are booked as lost,
// and a copy of an abandoned flush that arrives after all moves them back
// to ingested; either way every logged entry is accounted for.
func TestOALLedgerBooksLostFlushes(t *testing.T) {
	for _, c := range []struct {
		name  string
		fc    *FailureConfig
		icept network.Interceptor
		lost  bool
	}{
		{"dropped", nil, dropAllOAL{}, true},
		{"abandoned", fastFailureConfig(), dropAllOAL{}, true},
		{"abandoned then delivered", fastFailureConfig(), delayOAL{100 * sim.Millisecond}, false},
	} {
		k := flushKernel(t, c.fc, c.icept, 5)
		k.Run()
		logged := k.Stats().CorrelationLogs
		want := int64(0)
		if c.lost {
			want = logged
		}
		if logged == 0 || k.oalLost != want {
			t.Errorf("%s: %d of %d logged entries booked lost, want %d", c.name, k.oalLost, logged, want)
		}
		if c.fc != nil && k.FailureStats().FlushesAbandoned == 0 {
			t.Errorf("%s: no flush was abandoned", c.name)
		}
		if err := k.CheckOALConservation(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestFailureLayerOffIsInert: without Config.Failure the kernel sends no
// heartbeats, numbers no flushes, and reports no health.
func TestFailureLayerOffIsInert(t *testing.T) {
	k := flushKernel(t, nil, nil, 5)
	k.Run()
	if fs := k.FailureStats(); fs != (FailureStats{}) {
		t.Fatalf("failure counters moved with the layer off: %+v", fs)
	}
	if h := k.HealthInto(nil); h != nil {
		t.Fatalf("HealthInto = %+v with the layer off, want nil", h)
	}
	if got, want := k.Master().IngestedEntries(), k.Stats().OALEntries; got != want {
		t.Fatalf("ingested %d entries, want %d", got, want)
	}
}

// deferDown mimics the scenario layer's transient-crash semantics: every
// non-migration message touching the node inside [at, restart) is deferred
// until the restart, as if queued at a dead NIC.
type deferDown struct {
	node        network.NodeID
	at, restart sim.Time
	eng         *sim.Engine
}

func (d *deferDown) Intercept(now sim.Time, from, to network.NodeID, primary network.Category, _ int) network.Verdict {
	if primary == network.CatMigration {
		return network.Verdict{}
	}
	if now >= d.at && now < d.restart && (from == d.node || to == d.node) {
		return network.Verdict{Delay: d.restart - now}
	}
	return network.Verdict{}
}

// TestLockManagerFailover pins the lock-failover path: a lock managed by a
// node that goes dark is re-homed onto the master, adrift requests are
// resent under a fenced generation, and a holder whose release is lost
// toward the outage has its lock reclaimed — so contenders on live nodes
// keep making progress inside the outage window instead of stalling until
// the restart delivers the deferred traffic.
func TestLockManagerFailover(t *testing.T) {
	const (
		crashAt = 5 * sim.Millisecond
		restart = 80 * sim.Millisecond
		lockID  = 7 // 7 % 3 == 1: managed by the node that dies
	)
	k := failureKernel(3, TrackingOff, fastFailureConfig())
	k.Net.SetInterceptor(&deferDown{node: 1, at: crashAt, restart: restart, eng: k.Eng})
	cpu := k.Node(1).CPU()
	k.Eng.Schedule(crashAt, func() { cpu.SetSpeed(0.05) })
	k.Eng.Schedule(restart, func() { cpu.SetSpeed(1) })

	// A lingering thread keeps the cluster beating past the restart so the
	// revival (and the manager moving home) is observable.
	k.SpawnThread(0, "linger", func(th *Thread) {
		for th.Now() < restart+10*sim.Millisecond {
			th.Compute(200 * sim.Microsecond)
		}
	})
	var done [2]sim.Time
	for i, node := range []int{0, 2} {
		i, node := i, node
		k.SpawnThread(node, "contender", func(th *Thread) {
			for j := 0; j < 40; j++ {
				th.Acquire(lockID)
				th.Compute(100 * sim.Microsecond)
				th.Release(lockID)
			}
			done[i] = th.Now()
		})
	}
	k.Run()

	fs := k.FailureStats()
	if fs.LeaseExpiries == 0 {
		t.Fatal("node 1 was never declared dead")
	}
	if fs.LockFailovers == 0 {
		t.Fatal("no lock failed over despite its manager dying")
	}
	for i, at := range done {
		if at == 0 {
			t.Fatalf("contender %d never finished", i)
		}
		if at >= restart {
			t.Errorf("contender %d finished at %v — only after the restart drained deferred traffic", i, at)
		}
	}
	// The manager moved back once the node revived.
	if home := k.lock(lockID).home; home != 1 {
		t.Errorf("lock home after revival = %d, want 1", home)
	}
}

// TestLockReclaimFreesDeadHoldersLock pins the sweep-side reclaim: a
// holder on the dying node releases into the outage (the release message
// is adrift until restart), and the detector sweep hands the lock to the
// live waiter anyway, generation-fencing the stale release.
func TestLockReclaimFreesDeadHoldersLock(t *testing.T) {
	const (
		crashAt = 5 * sim.Millisecond
		restart = 80 * sim.Millisecond
		lockID  = 8 // 8 % 3 == 2: managed by a node that stays healthy
	)
	k := failureKernel(3, TrackingOff, fastFailureConfig())
	k.Net.SetInterceptor(&deferDown{node: 1, at: crashAt, restart: restart, eng: k.Eng})
	cpu := k.Node(1).CPU()
	k.Eng.Schedule(crashAt, func() { cpu.SetSpeed(0.05) })
	k.Eng.Schedule(restart, func() { cpu.SetSpeed(1) })

	// The doomed holder grabs the lock before the crash and releases into
	// the outage (its CPU crawls, so the short compute spans the crash);
	// the release toward the healthy manager is adrift from the dead node,
	// so only the sweep-side reclaim can free the lock.
	k.SpawnThread(1, "doomed", func(th *Thread) {
		th.Acquire(lockID)
		th.Compute(6 * sim.Millisecond)
		th.Release(lockID)
	})
	var waiterDone sim.Time
	k.SpawnThread(2, "waiter", func(th *Thread) {
		th.Compute(2 * sim.Millisecond) // let the doomed holder win the lock
		th.Acquire(lockID)
		th.Compute(100 * sim.Microsecond)
		th.Release(lockID)
		waiterDone = th.Now()
	})
	k.Run()

	fs := k.FailureStats()
	if fs.LockReclaims == 0 {
		t.Fatal("the wedged lock was never reclaimed")
	}
	if waiterDone == 0 {
		t.Fatal("waiter never finished")
	}
	if waiterDone >= restart {
		t.Errorf("waiter finished at %v — it waited out the outage instead of being granted the reclaimed lock", waiterDone)
	}
}

// TestDetectorSweepAllocatesNothing: a failure-detector sweep over a
// kernel whose locks are all free finds nothing to reclaim and allocates
// nothing.
func TestDetectorSweepAllocatesNothing(t *testing.T) {
	const locks = 16
	k := failureKernel(3, TrackingOff, fastFailureConfig())
	for n := 0; n < 3; n++ {
		k.SpawnThread(n, "locker", func(th *Thread) {
			for id := 0; id < locks; id++ {
				th.Acquire(id)
				th.Release(id)
			}
		})
	}
	k.Run()
	held := 0
	for range k.locks.all() {
		held++
	}
	if held != locks {
		t.Fatalf("kernel holds %d locks, want %d", held, locks)
	}
	if allocs := testing.AllocsPerRun(100, k.reclaimDeadHolderLocks); allocs != 0 {
		t.Fatalf("a sweep with no wedged lock allocates %v times, want 0", allocs)
	}
	if fs := k.FailureStats(); fs.LockReclaims != 0 {
		t.Fatalf("%d locks reclaimed, want 0", fs.LockReclaims)
	}
}

// TestFailoverResendsInLockIDOrder: locks created in descending id order,
// on several lock-table pages and all managed by the node that dies, each
// with a request adrift toward it. Failover resends the requests to the
// master in ascending lock-id order.
func TestFailoverResendsInLockIDOrder(t *testing.T) {
	k := failureKernel(3, TrackingOff, fastFailureConfig())
	ids := []int{11002, 4000, 130, 7, 1} // each id % 3 == 1: node 1 manages them
	for _, id := range ids {
		ls := k.lock(id)
		if ls.home != 1 {
			t.Fatalf("lock %d managed by node %d, want 1", id, ls.home)
		}
		ls.inflight = append(ls.inflight, lockWaiter{node: 2, tok: int64(id)})
	}
	var resent []int
	k.Net.Bind(0, func(m *network.Message) {
		if pm := m.Payload.(*protoMsg); pm.kind == msgLockReq {
			resent = append(resent, pm.lock)
		}
	})
	k.failoverLocks(1)
	k.Eng.Run()
	want := []int{1, 7, 130, 4000, 11002}
	if fmt.Sprint(resent) != fmt.Sprint(want) {
		t.Fatalf("requests resent for locks %v, want %v", resent, want)
	}
	if fs := k.FailureStats(); fs.LockFailovers != int64(len(ids)) {
		t.Fatalf("%d locks failed over, want %d", fs.LockFailovers, len(ids))
	}
}
