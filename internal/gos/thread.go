package gos

import (
	"fmt"

	"jessica2/internal/heap"
	"jessica2/internal/network"
	"jessica2/internal/oal"
	"jessica2/internal/sim"
	"jessica2/internal/stack"
)

// Thread is a distributed-JVM thread: it executes on one node (until
// migrated), opens and closes HLRC intervals at synchronization points, and
// funnels every shared-object access through the inlined state-check path
// where correlation logging happens.
type Thread struct {
	k    *Kernel
	id   int
	name string
	node *Node
	proc *sim.Proc

	// Stack is the shadow Java stack used by the stack profiler.
	Stack *stack.ThreadStack

	interval     int64
	intervalOpen bool
	closing      bool // inside closeInterval (observer callbacks still see the interval's state)
	pc           int64
	startPC      int64

	// accessed is the thread's per-object access state, indexed by
	// ObjectID; touched lists the entries first touched in the current
	// interval, in first-touch order.
	accessed   heap.Table[accessEntry]
	touched    []*accessEntry
	rec        *oal.Record
	lastLogged []heap.ObjectID

	// observers receive this thread's access and interval-close
	// callbacks in registration order: the kernel-wide observers
	// (Kernel.AddObserver) interleaved with the thread's own
	// (Thread.AddObserver).
	observers []AccessObserver

	// diffBytes/diffHomes are interval-close scratch: per-home-node diff
	// payload accumulation reused across intervals.
	diffBytes []int
	diffHomes []int

	pendingCPU sim.Time
	finished   bool
	finishedAt sim.Time

	// safePointFn, when set, runs on the thread's own proc at its next
	// safe point (the top of its next shared access, before the interval
	// state is touched). It is the injection mechanism for externally
	// requested thread migrations: the closed-loop session decides at an
	// epoch boundary, the thread acts when it reaches a point where its
	// context is capturable.
	safePointFn func(*Thread)

	stats ThreadStats
}

// ThreadStats are per-thread counters.
type ThreadStats struct {
	Accesses      int64
	Faults        int64
	FaultBytes    int64
	Logged        int64
	ComputeTime   sim.Time
	FaultWaitTime sim.Time
	Migrations    int64
}

// accessEntry tracks one object within the current interval. It caches the
// node's copy header so the per-access fast path costs one table index.
// Entries persist across intervals and are revived in place when their
// interval stamp is stale, so the steady-state access path allocates
// nothing.
type accessEntry struct {
	// interval stamps which interval the entry belongs to; a stale stamp
	// means the entry is logically absent from the current interval.
	interval     int64
	copy         *copyState // nil until resolved on the thread's node
	writtenBytes int
	written      bool
	logged       bool
}

// SpawnThread creates a DJVM thread with global id len(threads) running
// body on the given node. The body runs as a simulation proc; when it
// returns, the thread's final interval is closed and buffered OALs flush.
func (k *Kernel) SpawnThread(node int, name string, body func(*Thread)) *Thread {
	if node < 0 || node >= len(k.nodes) {
		panic(fmt.Sprintf("gos: bad node %d", node))
	}
	k.startFailureDetector() // idempotent; no-op when Cfg.Failure is nil
	t := &Thread{
		k:         k,
		id:        len(k.threads),
		name:      name,
		node:      k.nodes[node],
		Stack:     stack.NewThreadStack(),
		observers: append([]AccessObserver(nil), k.observers...),
	}
	k.threads = append(k.threads, t)
	t.proc = k.Eng.Spawn(name, func(p *sim.Proc) {
		body(t)
		t.closeInterval()
		t.flushCPU()
		t.finished = true
		t.finishedAt = p.Now()
	})
	return t
}

// ID returns the global thread id.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Node returns the node the thread currently executes on.
func (t *Thread) Node() *Node { return t.node }

// Kernel returns the owning kernel.
func (t *Thread) Kernel() *Kernel { return t.k }

// Proc exposes the simulation process (for advanced scheduling).
func (t *Thread) Proc() *sim.Proc { return t.proc }

// Stats returns a snapshot of the thread counters.
func (t *Thread) Stats() ThreadStats { return t.stats }

// Interval returns the current interval sequence number.
func (t *Thread) Interval() int64 { return t.interval }

// PC returns the thread's logical program counter.
func (t *Thread) PC() int64 { return t.pc }

// Finished reports whether the thread body has returned.
func (t *Thread) Finished() bool { return t.finished }

// AddObserver registers a profiling observer of this thread alone. It runs
// after the observers already registered for the thread, kernel-wide ones
// included.
func (t *Thread) AddObserver(obs AccessObserver) {
	t.observers = append(t.observers, obs)
}

// cpuSliceFlush is the microbatching threshold for charging accrued
// fast-path CPU time to the node CPU resource.
const cpuSliceFlush = 250 * sim.Microsecond

// Charge accrues d of CPU work; it is flushed to the node CPU resource in
// slices to keep the event count manageable.
func (t *Thread) Charge(d sim.Time) {
	t.pendingCPU += d
	if t.pendingCPU >= cpuSliceFlush {
		t.flushCPU()
	}
}

// Compute models pure application computation of duration d.
func (t *Thread) Compute(d sim.Time) { t.Charge(d) }

// Now returns the thread's accurate virtual time: pending CPU is flushed
// first, so the clock includes all work charged so far. Open-loop workloads
// use this to timestamp request completions.
func (t *Thread) Now() sim.Time {
	t.flushCPU()
	return t.proc.Now()
}

// SleepUntil parks the thread until absolute virtual time at (a no-op if at
// is already past after flushing pending CPU). Open-loop workloads use this
// to idle until the next scheduled request arrival; unlike Compute time,
// the wait charges no CPU.
func (t *Thread) SleepUntil(at sim.Time) {
	t.flushCPU()
	if d := at - t.proc.Now(); d > 0 {
		t.proc.Sleep(d)
	}
}

func (t *Thread) flushCPU() {
	if t.pendingCPU <= 0 {
		return
	}
	d := t.pendingCPU
	t.pendingCPU = 0
	t.proc.Use(t.node.cpu, d)
	t.stats.ComputeTime += d
}

// --- interval lifecycle ----------------------------------------------------

func (t *Thread) openInterval() {
	if t.intervalOpen {
		return
	}
	t.interval++
	t.intervalOpen = true
	t.startPC = t.pc
	t.rec = t.k.newRecord()
	t.rec.Thread = t.id
	t.rec.Node = t.node.id
	t.rec.Interval = t.interval
	t.rec.StartPC = t.startPC
	t.k.stats.Intervals++
	// Reset false-invalid on the objects this thread logged last interval
	// ("reset to false-invalid state to enable tracking on them
	// regardless of their real status"). Only sampled objects — the OAL
	// from last interval contains exactly those.
	if t.k.Cfg.Tracking == TrackingSampled {
		var resetCost sim.Time
		for _, id := range t.lastLogged {
			c := t.node.copyAt(id)
			if c == nil {
				continue // moved node; copies stay behind
			}
			if c.obj.Sampled() {
				c.falseInvalid = true
				t.k.stats.Resets++
				resetCost += t.k.Cfg.Costs.ResetCost
			}
		}
		if resetCost > 0 {
			t.Charge(resetCost)
		}
	}
}

// closeInterval flushes diffs for dirtied objects, finalizes the OAL record
// and hands it to the node's buffer.
func (t *Thread) closeInterval() {
	if !t.intervalOpen {
		return
	}
	t.intervalOpen = false
	t.closing = true
	cost := t.k.Cfg.Costs

	// Propagate diffs of written non-home objects to their homes, batched
	// per home node. The per-home byte accumulator is a reused per-thread
	// scratch table so interval close allocates nothing at steady state.
	if len(t.diffBytes) < t.k.NumNodes() {
		t.diffBytes = make([]int, t.k.NumNodes())
	}
	t.diffHomes = t.diffHomes[:0]
	var diffCPU sim.Time
	for _, e := range t.touched {
		if !e.written {
			continue
		}
		// The cached copy is this node's header: a migration closes the
		// interval before the thread leaves.
		c := e.copy
		o := c.obj
		wb := e.writtenBytes
		if wb <= 0 || wb > o.Bytes() {
			wb = o.Bytes()
		}
		diffCPU += sim.Time(wb) * cost.DiffCostPerByte
		// Commit the update: home writes commit in place; remote writes
		// advance the home version synchronously while the diff message
		// below models the traffic and latency. The writer's own copy
		// stays valid at the new version (it holds the data it wrote).
		t.k.bumpVersion(o.ID)
		if c.valid {
			c.version = t.k.version(o.ID)
		}
		if o.Home == t.node.id {
			continue
		}
		if t.diffBytes[o.Home] == 0 {
			t.diffHomes = append(t.diffHomes, o.Home)
		}
		t.diffBytes[o.Home] += wb + 8 // per-object diff header
		// The twin is discarded after diffing.
		c.hasTwin = false
	}
	if diffCPU > 0 {
		t.Charge(diffCPU)
	}
	for _, home := range t.diffHomes {
		bytes := t.diffBytes[home]
		t.diffBytes[home] = 0
		t.k.stats.DiffBytes += int64(bytes)
		t.k.stats.DiffMessages++
		t.k.Net.Send(network.NodeID(t.node.id), network.NodeID(home),
			network.CatGOSData, bytes, &protoMsg{kind: msgDiff})
	}

	// Finalize the OAL record.
	t.rec.EndPC = t.pc
	t.lastLogged = t.lastLogged[:0]
	for _, e := range t.rec.Entries {
		t.lastLogged = append(t.lastLogged, e.Obj)
	}
	if t.k.Cfg.Tracking != TrackingOff {
		t.node.bufferOAL(t.rec)
	} else {
		t.k.recycleRecord(t.rec)
	}
	t.rec = nil

	for _, obs := range t.observers {
		obs.OnIntervalClose(t)
	}

	// Reset per-interval access state. Entries stay in the table with a
	// now-stale interval stamp; the next interval revives them in place.
	t.touched = t.touched[:0]
	t.closing = false
}

// --- the access path -------------------------------------------------------

// Read models a read access to o.
func (t *Thread) Read(o *heap.Object) { t.access(o, false, 0) }

// Write models a write access that dirties the whole object.
func (t *Thread) Write(o *heap.Object) { t.access(o, true, o.Bytes()) }

// ReadElems / WriteElems are conveniences for array workloads.
func (t *Thread) ReadElems(o *heap.Object, elems int) { t.access(o, false, 0) }

// WriteElems dirties elems elements of array o.
func (t *Thread) WriteElems(o *heap.Object, elems int) {
	t.access(o, true, elems*o.Class.ElemSize)
}

// AtSafePoint schedules fn to run on the thread's own proc at its next
// safe point — the top of its next shared-object access, before any
// interval state is touched, where the thread's portable context can be
// captured and shipped (fn may call migration primitives that block the
// proc, such as MoveTo). A later request before the safe point is reached
// replaces an earlier one. No-op on finished threads.
func (t *Thread) AtSafePoint(fn func(*Thread)) {
	if t.finished {
		return
	}
	t.safePointFn = fn
}

// access is the JIT-inlined object state check path.
func (t *Thread) access(o *heap.Object, write bool, writtenBytes int) {
	if fn := t.safePointFn; fn != nil {
		t.safePointFn = nil
		fn(t)
	}
	t.openInterval()
	t.pc++
	t.stats.Accesses++
	t.k.stats.Checks++
	cost := &t.k.Cfg.Costs
	t.Charge(cost.CheckCost)

	// The entry pointer stays valid across a parked fault: table pages
	// never move.
	ai := t.accessed.At(o.ID)
	n := t.node
	first := ai.interval != t.interval
	if first {
		// Revive the entry in place, keeping the cached copy header
		// (invalidated only by migration, which clears the table).
		c := ai.copy
		if c == nil {
			c = n.copyOf(o)
		}
		*ai = accessEntry{interval: t.interval, copy: c}
		t.touched = append(t.touched, ai)
	}
	if write {
		ai.written = true
		ai.writtenBytes += writtenBytes
	}

	c := ai.copy
	if c.version == 0 && c.valid && o.Home == n.id {
		// Fresh home copy: seed tracking on creation ("each object is
		// given a tag ... upon its creation").
		if t.k.Cfg.Tracking == TrackingSampled && o.Sampled() && !c.falseInvalid && c.checkedEpoch == 0 {
			c.falseInvalid = true
			c.checkedEpoch = -1 // sentinel: seeded
		}
	}

	// Lazy write-notice application: at the first touch in a new sync
	// epoch, compare the fetched version against the home version.
	if o.Home != n.id && c.checkedEpoch < n.epoch {
		c.checkedEpoch = n.epoch
		if c.valid && c.version < t.k.version(o.ID) {
			c.valid = false
		}
	}

	if !c.valid {
		t.fault(o, c)
		t.maybeLog(o, ai, write)
	} else if c.falseInvalid {
		// Correlation fault: the state check sees "invalid", traps into
		// the GOS service routine, which logs and cancels the fake state.
		c.falseInvalid = false
		t.k.stats.FalseInvalidHit++
		t.maybeLog(o, ai, write)
	} else {
		n.localHits++
	}

	if t.k.Cfg.Tracking == TrackingExact && first {
		t.logExact(o, ai, write)
	}

	if write && o.Home != n.id && !c.hasTwin {
		c.hasTwin = true
		t.Charge(sim.Time(o.Bytes()) * cost.TwinCostPerByte)
	}

	for _, obs := range t.observers {
		obs.OnAccess(t, o, write, first)
	}
}

// fault brings the latest copy from the object's home (a remote roundtrip)
// or revalidates a stale home copy (never happens for true homes — home
// copies are always valid — but kept for safety).
func (t *Thread) fault(o *heap.Object, c *copyState) {
	cost := t.k.Cfg.Costs
	t.Charge(cost.FaultCPUCost)
	t.flushCPU() // blocking: release the CPU while waiting
	tok := t.node.newToken(t)
	t.k.Net.Send(network.NodeID(t.node.id), network.NodeID(o.Home),
		network.CatControl, 32, &protoMsg{kind: msgFetchReq, tok: tok, obj: o.ID})
	wait0 := t.proc.Now()
	t.proc.BlockNamed("fault ", o.Class.Name)
	t.stats.FaultWaitTime += t.proc.Now() - wait0
	c.valid = true
	c.version = t.k.version(o.ID)
	c.falseInvalid = false
	t.stats.Faults++
	t.stats.FaultBytes += int64(o.Bytes())
	t.k.stats.Faults++
	t.k.stats.FaultBytes += int64(o.Bytes())
}

// maybeLog appends an OAL entry for a sampled object, at most once per
// thread-interval.
func (t *Thread) maybeLog(o *heap.Object, ai *accessEntry, write bool) {
	if t.k.Cfg.Tracking != TrackingSampled || ai.logged {
		return
	}
	gap := o.Class.Gap()
	if gap <= 0 || !o.Sampled() {
		return
	}
	ai.logged = true
	t.Charge(t.k.Cfg.Costs.LogCost)
	// Scaled estimator: amortized sample size × gap, so sampled maps
	// estimate the full-population shared volume.
	bytes := int64(o.AmortizedBytes()) * gap
	t.rec.Entries = append(t.rec.Entries, oal.Entry{Obj: o.ID, Bytes: bytes, Write: write})
	t.stats.Logged++
	t.k.stats.CorrelationLogs++
}

// logExact is the oracle logging mode.
func (t *Thread) logExact(o *heap.Object, ai *accessEntry, write bool) {
	if ai.logged {
		return
	}
	ai.logged = true
	t.rec.Entries = append(t.rec.Entries, oal.Entry{Obj: o.ID, Bytes: int64(o.Bytes()), Write: write})
	t.stats.Logged++
	t.k.stats.CorrelationLogs++
}

// --- allocation ------------------------------------------------------------

// Alloc creates a scalar object homed at the thread's current node.
func (t *Thread) Alloc(c *heap.Class) *heap.Object {
	return t.k.Reg.Alloc(c, t.node.id)
}

// AllocArray creates an array homed at the thread's current node.
func (t *Thread) AllocArray(c *heap.Class, n int) *heap.Object {
	return t.k.Reg.AllocArray(c, n, t.node.id)
}

// --- migration support -----------------------------------------------------

// MoveTo transfers the thread to another node, blocking for the transfer of
// payloadBytes (stack context plus any prefetched sticky set). The caller
// (package migration) computes the payload and installs prefetched copies.
func (t *Thread) MoveTo(nodeID int, payloadBytes int) {
	if nodeID == t.node.id {
		return
	}
	t.closeInterval()
	t.flushCPU()
	from := t.node
	target := t.k.nodes[nodeID]
	tok := from.newToken(t)
	self := t
	t.k.Net.Send(network.NodeID(from.id), network.NodeID(nodeID),
		network.CatMigration, payloadBytes,
		&protoMsg{kind: msgMigrateIn, data: func() {
			from.completePending(tok)
		}})
	t.proc.Block("migrate")
	t.node = target
	// The cached copy headers in the access table belong to the old node;
	// drop them so accesses on the new node resolve fresh ones.
	t.accessed.Clear()
	self.stats.Migrations++
}

// InstallPrefetched marks objs valid in node's cache at current home
// versions — the sticky set arriving with a migrated thread.
func (k *Kernel) InstallPrefetched(nodeID int, objs []*heap.Object) {
	n := k.nodes[nodeID]
	for _, o := range objs {
		c := n.copyOf(o)
		c.valid = true
		c.version = k.version(o.ID)
		c.checkedEpoch = n.epoch
	}
}
