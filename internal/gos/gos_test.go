package gos

import (
	"testing"

	"jessica2/internal/heap"
	"jessica2/internal/network"
	"jessica2/internal/sim"
)

// testKernel builds a small kernel for protocol tests.
func testKernel(nodes int, mode TrackingMode) *Kernel {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.Tracking = mode
	return NewKernel(cfg)
}

func TestHomeAllocationAndLocalAccess(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	var faults int64
	k.SpawnThread(0, "t0", func(th *Thread) {
		o := th.Alloc(cls)
		if o.Home != 0 {
			t.Errorf("home = %d, want 0", o.Home)
		}
		th.Write(o)
		th.Read(o)
		faults = th.Stats().Faults
	})
	k.Run()
	if faults != 0 {
		t.Fatalf("home accesses faulted %d times", faults)
	}
}

func TestRemoteFaultFetchesOnce(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	var obj *heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		obj = th.Alloc(cls)
		th.Write(obj)
		th.Barrier(1, 2)
	})
	k.SpawnThread(1, "reader", func(th *Thread) {
		th.Barrier(1, 2)
		th.Read(obj)
		th.Read(obj) // cached: no second fault
		th.Read(obj)
	})
	k.Run()
	st := k.Stats()
	if st.Faults != 1 {
		t.Fatalf("faults = %d, want 1", st.Faults)
	}
	if st.FaultBytes != 64 {
		t.Fatalf("fault bytes = %d, want 64", st.FaultBytes)
	}
}

// TestWriteVisibilityAfterBarrier is the HLRC coherence invariant: a write
// released before a barrier invalidates remote caches, so readers re-fetch.
func TestWriteVisibilityAfterBarrier(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	var obj *heap.Object
	k.SpawnThread(0, "writer", func(th *Thread) {
		obj = th.Alloc(cls)
		th.Write(obj)
		th.Barrier(1, 2) // round 0: publish
		th.Barrier(2, 2) // round 1: reader reads
		th.Write(obj)    // second update
		th.Barrier(3, 2)
		th.Barrier(4, 2)
	})
	var readerFaults int64
	k.SpawnThread(1, "reader", func(th *Thread) {
		th.Barrier(1, 2)
		th.Read(obj) // fault 1
		th.Read(obj) // cached
		th.Barrier(2, 2)
		th.Barrier(3, 2)
		th.Read(obj) // stale after writer's release: fault 2
		th.Barrier(4, 2)
		readerFaults = th.Stats().Faults
	})
	k.Run()
	if readerFaults != 2 {
		t.Fatalf("reader faults = %d, want 2 (initial + post-invalidation)", readerFaults)
	}
}

// TestNoRefetchWithinInterval: staleness is only observed at sync points
// (epoch boundaries), not mid-interval — LRC semantics.
func TestNoRefetchWithinInterval(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	var obj *heap.Object
	k.SpawnThread(0, "writer", func(th *Thread) {
		obj = th.Alloc(cls)
		th.Write(obj)
		th.Barrier(1, 2)
		// Keep updating without the reader synchronizing.
		for i := 0; i < 5; i++ {
			th.Write(obj)
			th.Release(99) // release-only interval closes, bumping versions
		}
		th.Barrier(2, 2)
	})
	var faults int64
	k.SpawnThread(1, "reader", func(th *Thread) {
		th.Barrier(1, 2)
		for i := 0; i < 10; i++ {
			th.Read(obj) // one fault; stays valid within the interval
		}
		th.Barrier(2, 2)
		faults = th.Stats().Faults
	})
	k.Run()
	if faults != 1 {
		t.Fatalf("reader faulted %d times within one interval, want 1", faults)
	}
}

func TestLockMutualExclusionFIFO(t *testing.T) {
	k := testKernel(4, TrackingOff)
	var order []int
	var inside int
	for i := 0; i < 4; i++ {
		i := i
		k.SpawnThread(i, "t", func(th *Thread) {
			th.Compute(sim.Time(i+1) * sim.Microsecond) // stagger arrivals
			th.Acquire(7)
			inside++
			if inside != 1 {
				t.Errorf("mutual exclusion violated: %d inside", inside)
			}
			order = append(order, i)
			th.Compute(50 * sim.Microsecond)
			inside--
			th.Release(7)
		})
	}
	k.Run()
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	if k.Stats().LockAcquires != 4 {
		t.Fatalf("acquires = %d", k.Stats().LockAcquires)
	}
}

func TestBarrierJoinsAll(t *testing.T) {
	k := testKernel(4, TrackingOff)
	arrived := 0
	released := 0
	for i := 0; i < 4; i++ {
		i := i
		k.SpawnThread(i, "t", func(th *Thread) {
			th.Compute(sim.Time(i*100) * sim.Microsecond)
			arrived++
			th.Barrier(5, 4)
			if arrived != 4 {
				t.Errorf("released before all arrived: %d", arrived)
			}
			released++
		})
	}
	k.Run()
	if released != 4 || k.Stats().Barriers != 1 {
		t.Fatalf("released=%d episodes=%d", released, k.Stats().Barriers)
	}
}

func TestBarrierPartyMismatchPanics(t *testing.T) {
	k := testKernel(2, TrackingOff)
	k.SpawnThread(0, "a", func(th *Thread) { th.Barrier(1, 2) })
	k.SpawnThread(1, "b", func(th *Thread) { th.Barrier(1, 3) })
	defer func() {
		if recover() == nil {
			t.Error("party mismatch did not panic")
		}
	}()
	k.Run()
}

// TestDeadlockReportNamesLockAndBarrier pins the deadlock report for
// threads parked on a lock that is never released, on a barrier that never
// fills, on a fault whose fetch is lost, on a CPU that is never freed and on
// a queue that is never woken: each entry is the proc name, then the lock
// or barrier id, the faulted class, the resource or the queue.
func TestDeadlockReportNamesLockAndBarrier(t *testing.T) {
	k := testKernel(3, TrackingOff)
	k.SpawnThread(0, "holder", func(th *Thread) { th.Acquire(7) })
	k.SpawnThread(1, "waiter", func(th *Thread) {
		th.Compute(sim.Millisecond) // the holder's grant lands first
		th.Acquire(7)
	})
	k.SpawnThread(1, "lonely", func(th *Thread) { th.Barrier(3, 2) })
	// Node 2's traffic is lost, so its fetch never returns; a hog holds
	// its CPU while parked on a queue nobody wakes.
	k.Net.SetInterceptor(dropFrom(2))
	obj := k.Reg.Alloc(k.Reg.DefineClass("Rec", 64, 0), 0)
	k.SpawnThread(2, "faulter", func(th *Thread) { th.Read(obj) })
	k.Eng.Spawn("hog", func(p *sim.Proc) {
		k.Node(2).CPU().Acquire(p)
		sim.NewWaitQueue("stuck").Wait(p)
	})
	k.SpawnThread(2, "cruncher", func(th *Thread) {
		th.SleepUntil(sim.Millisecond) // the hog holds the CPU by now
		th.Compute(sim.Millisecond)
	})
	defer func() {
		const want = "sim: deadlock: [cruncher@acquire node20.cpu faulter@fault Rec hog@wait stuck lonely@barrier3 waiter@lock7]"
		if got := recover(); got != want {
			t.Errorf("deadlock report = %q, want %q", got, want)
		}
	}()
	k.Run()
}

// dropFrom is an interceptor that loses every message one node sends.
type dropFrom network.NodeID

func (d dropFrom) Intercept(now sim.Time, from, to network.NodeID, cat network.Category, bytes int) network.Verdict {
	return network.Verdict{Drop: from == network.NodeID(d)}
}

// TestAtMostOnceLogging: a thread logs each sampled object at most once
// per interval no matter how many times it accesses it.
func TestAtMostOnceLogging(t *testing.T) {
	k := testKernel(2, TrackingSampled)
	cls := k.Reg.DefineClass("X", 64, 0) // gap 1: everything sampled
	var obj *heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		obj = th.Alloc(cls)
		th.Write(obj)
		th.Barrier(1, 2)
		th.Barrier(2, 2)
	})
	var logged int64
	k.SpawnThread(1, "reader", func(th *Thread) {
		th.Barrier(1, 2)
		for i := 0; i < 100; i++ {
			th.Read(obj)
		}
		th.Barrier(2, 2)
		logged = th.Stats().Logged
	})
	k.Run()
	if logged != 1 {
		t.Fatalf("logged = %d, want 1 (at-most-once per interval)", logged)
	}
}

// TestFalseInvalidReenablesLogging: after an interval boundary, the logged
// object is reset to false-invalid and the next access logs again.
func TestFalseInvalidReenablesLogging(t *testing.T) {
	k := testKernel(2, TrackingSampled)
	cls := k.Reg.DefineClass("X", 64, 0)
	var obj *heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		obj = th.Alloc(cls)
		th.Write(obj)
		for b := 1; b <= 4; b++ {
			th.Barrier(b, 2)
		}
	})
	var logged int64
	k.SpawnThread(1, "reader", func(th *Thread) {
		th.Barrier(1, 2)
		th.Read(obj) // interval A: genuine fault, logged
		th.Barrier(2, 2)
		th.Read(obj) // interval B: correlation fault (false-invalid), logged
		th.Barrier(3, 2)
		th.Read(obj) // interval C: logged again
		th.Barrier(4, 2)
		logged = th.Stats().Logged
	})
	k.Run()
	if logged != 3 {
		t.Fatalf("logged = %d, want 3 (once per interval)", logged)
	}
	if k.Stats().FalseInvalidHit < 2 {
		t.Fatalf("correlation faults = %d, want >= 2", k.Stats().FalseInvalidHit)
	}
}

// TestUnsampledObjectsNotLogged: with a wide gap, unsampled objects never
// produce OAL entries.
func TestUnsampledObjectsNotLogged(t *testing.T) {
	k := testKernel(2, TrackingSampled)
	cls := k.Reg.DefineClass("X", 64, 0)
	cls.SetGap(64, 61) // sample ~1/61 of instances
	var objs []*heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		for i := 0; i < 61; i++ {
			o := th.Alloc(cls)
			th.Write(o)
			objs = append(objs, o)
		}
		th.Barrier(1, 2)
		th.Barrier(2, 2)
	})
	var logged int64
	k.SpawnThread(1, "reader", func(th *Thread) {
		th.Barrier(1, 2)
		for _, o := range objs {
			th.Read(o)
		}
		th.Barrier(2, 2)
		logged = th.Stats().Logged
	})
	k.Run()
	if logged != 1 {
		t.Fatalf("logged = %d, want exactly 1 of 61 at gap 61", logged)
	}
}

// TestScaledEstimator: the logged bytes are amortized × gap, estimating
// the class's full volume.
func TestScaledEstimator(t *testing.T) {
	k := testKernel(2, TrackingSampled)
	cls := k.Reg.DefineClass("X", 100, 0)
	cls.SetGap(8, 7)
	var objs []*heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		for i := 0; i < 70; i++ {
			o := th.Alloc(cls)
			th.Write(o)
			objs = append(objs, o)
		}
		th.Barrier(1, 2)
		// Owner also touches everything so the pair correlates.
		for _, o := range objs {
			th.Read(o)
		}
		th.Barrier(2, 2)
	})
	k.SpawnThread(1, "reader", func(th *Thread) {
		th.Barrier(1, 2)
		for _, o := range objs {
			th.Read(o)
		}
		th.Barrier(2, 2)
	})
	k.Run()
	k.FlushAllOAL()
	m, _ := k.TCM()
	got := m.At(0, 1)
	truth := float64(70 * 100)
	if got < truth*0.7 || got > truth*1.3 {
		t.Fatalf("estimated shared volume %v, truth %v (scaled estimator off)", got, truth)
	}
}

func TestTrackingExactLogsEverything(t *testing.T) {
	k := testKernel(2, TrackingExact)
	cls := k.Reg.DefineClass("X", 64, 0)
	cls.SetGap(1024, 1021) // sampling gap irrelevant in exact mode
	var objs []*heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		for i := 0; i < 10; i++ {
			o := th.Alloc(cls)
			th.Write(o)
			objs = append(objs, o)
		}
		th.Barrier(1, 2)
		th.Barrier(2, 2)
	})
	var logged int64
	k.SpawnThread(1, "reader", func(th *Thread) {
		th.Barrier(1, 2)
		for _, o := range objs {
			th.Read(o)
			th.Read(o)
		}
		th.Barrier(2, 2)
		logged = th.Stats().Logged
	})
	k.Run()
	if logged != 10 {
		t.Fatalf("exact mode logged %d, want 10", logged)
	}
}

func TestDiffAccounting(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 256, 0)
	var obj *heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		obj = th.Alloc(cls)
		th.Write(obj) // home write: no diff message
		th.Barrier(1, 2)
		th.Barrier(2, 2)
	})
	k.SpawnThread(1, "writer", func(th *Thread) {
		th.Barrier(1, 2)
		th.Write(obj) // remote write: diff at interval close
		th.Barrier(2, 2)
	})
	k.Run()
	st := k.Stats()
	if st.DiffMessages != 1 {
		t.Fatalf("diff messages = %d, want 1", st.DiffMessages)
	}
	if st.DiffBytes < 256 {
		t.Fatalf("diff bytes = %d, want >= 256", st.DiffBytes)
	}
}

func TestPartialWriteDiffSize(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineArrayClass("arr", 8)
	var obj *heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		obj = th.AllocArray(cls, 1024) // 8 KB
		th.WriteElems(obj, 1024)
		th.Barrier(1, 2)
		th.Barrier(2, 2)
	})
	k.SpawnThread(1, "writer", func(th *Thread) {
		th.Barrier(1, 2)
		th.WriteElems(obj, 16) // dirty 128 bytes only
		th.Barrier(2, 2)
	})
	k.Run()
	if st := k.Stats(); st.DiffBytes > 512 {
		t.Fatalf("partial write shipped %d diff bytes", st.DiffBytes)
	}
}

func TestOALPiggybackOnBarrier(t *testing.T) {
	k := testKernel(2, TrackingSampled)
	cls := k.Reg.DefineClass("X", 64, 0)
	var objs []*heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		for i := 0; i < 20; i++ {
			o := th.Alloc(cls)
			th.Write(o)
			objs = append(objs, o)
		}
		th.Barrier(1, 2)
		th.Barrier(2, 2)
	})
	k.SpawnThread(1, "reader", func(th *Thread) {
		th.Barrier(1, 2)
		for _, o := range objs {
			th.Read(o)
		}
		th.Barrier(2, 2)
	})
	k.Run()
	st := k.Net.Stats()
	if st.CatBytes(network.CatOAL) == 0 {
		t.Fatal("no OAL traffic despite sampled tracking")
	}
	// Piggybacked: OAL bytes but no dedicated jumbo message needed for
	// this tiny run — message count for OAL equals the piggyback parts.
	if k.Stats().OALEntries == 0 || k.Stats().OALRecords == 0 {
		t.Fatal("no OAL records collected")
	}
}

func TestOALTransferDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.Tracking = TrackingSampled
	cfg.TransferOALs = false
	k := NewKernel(cfg)
	cls := k.Reg.DefineClass("X", 64, 0)
	var objs []*heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		for i := 0; i < 20; i++ {
			o := th.Alloc(cls)
			th.Write(o)
			objs = append(objs, o)
		}
		th.Barrier(1, 2)
		th.Barrier(2, 2)
	})
	k.SpawnThread(1, "reader", func(th *Thread) {
		th.Barrier(1, 2)
		for _, o := range objs {
			th.Read(o)
		}
		th.Barrier(2, 2)
	})
	k.Run()
	k.FlushAllOAL()
	if b := k.Net.Stats().CatBytes(network.CatOAL); b != 0 {
		t.Fatalf("OAL traffic %d with transfer disabled", b)
	}
	// The master still ingests locally so accuracy studies can run.
	if k.Master().IngestedEntries() == 0 {
		t.Fatal("master saw no entries in local-ingest mode")
	}
}

func TestMigrationMovesThread(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	var migrated bool
	k.SpawnThread(0, "mover", func(th *Thread) {
		o := th.Alloc(cls)
		th.Write(o)
		if th.Node().ID() != 0 {
			t.Error("wrong start node")
		}
		th.MoveTo(1, 1024)
		if th.Node().ID() != 1 {
			t.Error("thread did not move")
		}
		// Own object is now remote: read faults.
		th.Read(o)
		if th.Stats().Faults != 1 {
			t.Errorf("post-migration faults = %d, want 1", th.Stats().Faults)
		}
		migrated = true
	})
	k.Run()
	if !migrated {
		t.Fatal("body did not complete")
	}
	if k.Net.Stats().CatBytes(network.CatMigration) != 1024 {
		t.Fatal("migration bytes unaccounted")
	}
}

func TestInstallPrefetchedAvoidsFaults(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	k.SpawnThread(0, "mover", func(th *Thread) {
		var objs []*heap.Object
		for i := 0; i < 10; i++ {
			o := th.Alloc(cls)
			th.Write(o)
			objs = append(objs, o)
		}
		th.MoveTo(1, 2048)
		k.InstallPrefetched(1, objs)
		for _, o := range objs {
			th.Read(o)
		}
		if f := th.Stats().Faults; f != 0 {
			t.Errorf("faults = %d with prefetched set, want 0", f)
		}
	})
	k.Run()
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, KernelStats) {
		k := testKernel(4, TrackingSampled)
		cls := k.Reg.DefineClass("X", 64, 0)
		shared := make([]*heap.Object, 0, 40)
		for i := 0; i < 4; i++ {
			i := i
			k.SpawnThread(i, "t", func(th *Thread) {
				for j := 0; j < 10; j++ {
					o := th.Alloc(cls)
					th.Write(o)
					shared = append(shared, o)
				}
				th.Barrier(1, 4)
				for _, o := range shared {
					th.Read(o)
					th.Compute(3 * sim.Microsecond)
				}
				th.Barrier(2, 4)
			})
		}
		end := k.Run()
		return end, k.Stats()
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 {
		t.Fatalf("times differ: %v vs %v", e1, e2)
	}
	if s1 != s2 {
		t.Fatalf("stats differ:\n%+v\n%+v", s1, s2)
	}
}

func TestThreadFinishTime(t *testing.T) {
	k := testKernel(2, TrackingOff)
	k.SpawnThread(0, "a", func(th *Thread) { th.Compute(10 * sim.Millisecond) })
	k.SpawnThread(1, "b", func(th *Thread) { th.Compute(30 * sim.Millisecond) })
	end := k.Run()
	if end != 30*sim.Millisecond {
		t.Fatalf("workload end = %v, want 30ms", end)
	}
	if !k.AllThreadsFinished() {
		t.Fatal("threads not finished")
	}
}

func TestIntervalContextPCs(t *testing.T) {
	k := testKernel(1, TrackingSampled)
	cls := k.Reg.DefineClass("X", 64, 0)
	k.SpawnThread(0, "t", func(th *Thread) {
		o := th.Alloc(cls)
		th.Write(o)
		th.Read(o)
		if th.PC() != 2 {
			t.Errorf("pc = %d, want 2", th.PC())
		}
		th.Release(1)
		th.Read(o)
	})
	k.Run()
	if k.Stats().Intervals != 2 {
		t.Fatalf("intervals = %d, want 2", k.Stats().Intervals)
	}
}

// TestOALJumboFlushThreshold: exceeding OALFlushEntries triggers a
// dedicated jumbo message without waiting for a sync point.
func TestOALJumboFlushThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.Tracking = TrackingSampled
	cfg.OALFlushEntries = 8
	k := NewKernel(cfg)
	cls := k.Reg.DefineClass("X", 64, 0)
	var objs []*heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		for i := 0; i < 64; i++ {
			o := th.Alloc(cls)
			th.Write(o)
			objs = append(objs, o)
		}
		th.Barrier(1, 2)
		th.Barrier(2, 2)
	})
	k.SpawnThread(1, "reader", func(th *Thread) {
		th.Barrier(1, 2)
		// Many release-delimited intervals accumulate records past the
		// threshold (lock 1 homes at node 1 — no piggyback to master).
		for r := 0; r < 16; r++ {
			for j := 0; j < 4; j++ {
				th.Read(objs[(r*4+j)%64])
			}
			th.Acquire(1)
			th.Release(1)
		}
		th.Barrier(2, 2)
	})
	k.Run()
	st := k.Net.Stats()
	// At least one dedicated OAL message (jumbo) must have been sent
	// before the final barrier piggyback.
	if st.Messages[network.CatOAL] < 2 {
		t.Fatalf("OAL messages = %d, want jumbo + piggyback", st.Messages[network.CatOAL])
	}
}

// TestResampleOnGapChange: applying a new sampling plan re-tags cached
// objects and the kernel records the resample count.
func TestResampleStatRecorded(t *testing.T) {
	k := testKernel(1, TrackingSampled)
	k.ChargeResample(123)
	if k.Stats().ResampledObjs != 123 {
		t.Fatal("resample stat not recorded")
	}
}

// TestMultipleWorkloadsShareKernel: two workload-style thread groups can
// coexist with distinct barrier/lock namespaces.
func TestMultipleThreadGroups(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	done := 0
	for g := 0; g < 2; g++ {
		g := g
		for i := 0; i < 2; i++ {
			i := i
			k.SpawnThread(i, "g", func(th *Thread) {
				o := th.Alloc(cls)
				th.Write(o)
				th.Barrier(100+g, 2) // per-group barrier
				th.Acquire(200 + g)
				th.Release(200 + g)
				done++
				_ = i
			})
		}
	}
	k.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
}

// TestWriteThenReadSameInterval: a thread reading its own write within an
// interval never faults (its copy is the freshest).
func TestWriteThenReadSameInterval(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	var obj *heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		obj = th.Alloc(cls)
		th.Write(obj)
		th.Barrier(1, 2)
		th.Barrier(2, 2)
	})
	k.SpawnThread(1, "writer", func(th *Thread) {
		th.Barrier(1, 2)
		th.Write(obj) // fault + write
		f := th.Stats().Faults
		th.Read(obj) // own data: no fault
		th.Write(obj)
		if th.Stats().Faults != f {
			t.Error("read-own-write faulted")
		}
		th.Barrier(2, 2)
	})
	k.Run()
}

// TestWriterKeepsCopyAcrossItsOwnRelease: after releasing, the writer's
// own copy stays valid at the new version (no self-invalidation).
func TestWriterKeepsCopyAcrossRelease(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	var obj *heap.Object
	k.SpawnThread(0, "owner", func(th *Thread) {
		obj = th.Alloc(cls)
		th.Write(obj)
		th.Barrier(1, 2)
		th.Barrier(2, 2)
	})
	k.SpawnThread(1, "writer", func(th *Thread) {
		th.Barrier(1, 2)
		th.Write(obj)
		th.Release(7) // closes interval, ships diff
		f := th.Stats().Faults
		th.Acquire(7) // epoch advances
		th.Read(obj)  // still valid: own write is the latest version
		th.Release(7)
		if th.Stats().Faults != f {
			t.Error("writer refetched its own committed write")
		}
		th.Barrier(2, 2)
	})
	k.Run()
}

// TestCachedObjectsOfClass: the resample iteration set is sorted and
// class-filtered.
func TestCachedObjectsOfClass(t *testing.T) {
	k := testKernel(1, TrackingOff)
	a := k.Reg.DefineClass("A", 64, 0)
	b := k.Reg.DefineClass("B", 64, 0)
	k.SpawnThread(0, "t", func(th *Thread) {
		for i := 0; i < 5; i++ {
			th.Write(th.Alloc(a))
			th.Write(th.Alloc(b))
		}
	})
	k.Run()
	n := k.Node(0)
	as := n.cachedObjectsOfClass(a)
	if len(as) != 5 {
		t.Fatalf("cached A = %d", len(as))
	}
	for i := 1; i < len(as); i++ {
		if as[i].obj.ID <= as[i-1].obj.ID {
			t.Fatal("not sorted")
		}
	}
	if n.NumCopies() != 10 {
		t.Fatalf("copies = %d", n.NumCopies())
	}
}
