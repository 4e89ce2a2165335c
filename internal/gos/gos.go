// Package gos implements the global object space (GOS) of the distributed
// JVM: a home-based lazy release consistency (HLRC) protocol over the
// simulated cluster, with object faulting, twin/diff update propagation,
// write notices (modelled as home version numbers checked at sync epochs),
// distributed locks, barriers — and the access profiler of the paper:
// false-invalid state resets at interval open, at-most-once access logging
// into per-interval object access lists (OALs), and OAL shipping to the
// master's correlation collector with piggybacking on synchronization
// messages.
package gos

import (
	"fmt"
	"math"

	"jessica2/internal/heap"
	"jessica2/internal/network"
	"jessica2/internal/oal"
	"jessica2/internal/sim"
	"jessica2/internal/tcm"
)

// TrackingMode selects how object accesses are logged for correlation.
type TrackingMode int

const (
	// TrackingOff disables correlation tracking entirely.
	TrackingOff TrackingMode = iota
	// TrackingSampled is the paper's mechanism: logging rides on the
	// false-invalid correlation faults of sampled objects.
	TrackingSampled
	// TrackingExact is the oracle used for the "inherent pattern": a log
	// is inserted at every first access per thread-interval regardless of
	// object state or sampling (the paper's Fig. 1(a) simulation mode).
	TrackingExact
)

func (m TrackingMode) String() string {
	switch m {
	case TrackingOff:
		return "off"
	case TrackingSampled:
		return "sampled"
	case TrackingExact:
		return "exact"
	default:
		return fmt.Sprintf("tracking(%d)", int(m))
	}
}

// The calibrated CPU cost model charges virtual time for protocol and
// profiling actions. The values approximate the paper's 2 GHz Pentium 4
// nodes; their ratios matter more than their absolute values, since the
// ratios shape the overhead tables.
const (
	// checkCost is one JIT-inlined object state check (fast path).
	checkCost = 3 * sim.Nanosecond
	// LogCost is one OAL log operation inside the access-fault service
	// routine (correlation-fault trap, OAL append, cancel false-invalid).
	LogCost = 2 * sim.Microsecond
	// resetCost is marking one object false-invalid at interval open.
	resetCost = 200 * sim.Nanosecond
	// faultCPUCost is the faulting node's software handler per object
	// fault (request construction, copy-in), excluding network time.
	faultCPUCost = 4 * sim.Microsecond
	// homeServiceCost is the home node's handler per fetch/diff request.
	homeServiceCost = 3 * sim.Microsecond
	// twinCostPerByte is the copy-on-first-write twin creation (1 ns/B,
	// about a 1 GB/s copy).
	twinCostPerByte = 1 * sim.Nanosecond
	// diffCostPerByte is diff computation and encoding at interval close.
	diffCostPerByte = 1 * sim.Nanosecond
	// ResampleCostPerObject is re-tagging one cached object after a
	// sampling-gap change notice.
	ResampleCostPerObject = 25 * sim.Nanosecond
	// oalPackCostPerEntry is packing one OAL entry into a jumbo message.
	oalPackCostPerEntry = 30 * sim.Nanosecond
	// tcmReorgCostPerEntry is the daemon's per-entry OAL reorganization
	// (per-thread lists to per-object lists).
	tcmReorgCostPerEntry = 90 * sim.Nanosecond
	// tcmPairCost is one accrual into the correlation map.
	tcmPairCost = 14 * sim.Nanosecond
	// lockServiceCost and barrierServiceCost are manager-side handler
	// costs.
	lockServiceCost    = 2 * sim.Microsecond
	barrierServiceCost = 2 * sim.Microsecond
)

// Config assembles a kernel.
type Config struct {
	// Nodes is the cluster size; node 0 doubles as the master JVM.
	Nodes int
	// Tracking selects the correlation tracking mode.
	Tracking TrackingMode
	// TransferOALs, when false, collects OALs but never ships them
	// (Table II isolates collection CPU cost this way).
	TransferOALs bool
	// DistributedTCM enables the paper's §VI scalability extension: each
	// worker reorganizes its own OALs into per-object summaries locally
	// and ships those instead of raw records, parallelizing the daemon's
	// O(M·N) reorganization and deduplicating repeat entries.
	DistributedTCM bool
	// OALFlushEntries triggers a jumbo message when a node's buffered
	// OAL entries exceed this count; OALs also piggyback on barrier
	// arrivals (whose manager lives on the master).
	OALFlushEntries int
	// Failure, when non-nil, enables the failure-tolerance layer (see
	// failure.go): heartbeat/lease failure detection, safe-point
	// evacuation of dead nodes' threads, and sequence-numbered ack/retry
	// OAL flushes. Nil keeps the kernel byte-identical to a build without
	// the layer.
	Failure *FailureConfig
}

// DefaultConfig returns an 8-node cluster mirroring the paper's testbed.
func DefaultConfig() Config {
	return Config{
		Nodes:           8,
		Tracking:        TrackingOff,
		TransferOALs:    true,
		OALFlushEntries: 4096,
	}
}

// AccessObserver receives profiling callbacks. The sticky-set footprinter
// registers one per thread (Thread.AddObserver); the page-based tracker
// registers one for every thread (Kernel.AddObserver). Callbacks run on the
// accessing thread's proc (cheaply; any CPU cost the observer wants to
// model must be charged via t.Charge).
type AccessObserver interface {
	// OnAccess fires for every Access call. first marks the thread's
	// first touch of the object in the current interval.
	OnAccess(t *Thread, o *heap.Object, write, first bool)
	// OnIntervalClose fires when a thread closes an interval.
	OnIntervalClose(t *Thread)
}

// Kernel is one distributed JVM instance over a simulated cluster.
type Kernel struct {
	Eng *sim.Engine
	Reg *heap.Registry
	Net *network.Network
	Cfg Config

	nodes    []*Node
	threads  []*Thread
	master   *Master
	locks    lockTable
	barriers map[int]*barrierState

	// versions is the home-side version number per object (write notices
	// are modelled as version advances checked at sync epochs), indexed by
	// ObjectID, so the hot-path version check is a page index instead of a
	// map probe. Copy headers store versions as int32, so bumpVersion
	// stops at that limit.
	versions heap.Table[int32]

	// observers are the kernel-wide observers, copied into each thread's
	// own list at spawn (see Thread.observers).
	observers []AccessObserver

	// recPool recycles OAL records between intervals: a record created at
	// interval open travels through the node buffer and the master's
	// ingestion, after which it (and its Entries capacity) returns here
	// instead of becoming garbage. The master ingests every payload that
	// reaches it exactly once, so only the records of a lost payload (a
	// dropped message, an abandoned flush, a flush still on the wire when
	// the run ends) go to the GC. The simulation is single-threaded under
	// the scheduler, so no locking is needed.
	recPool []*oal.Record
	// msgPool recycles protocol messages the same way (newMsg, freeMsg),
	// and oalBufs the record buffers that drains hand to the master
	// (newOALBuf, freeOALBuf).
	msgPool []*protoMsg
	oalBufs [][]*oal.Record

	stats KernelStats

	// oalWire and oalLost book the logged entries that left their node's
	// buffer without reaching the master (CheckOALConservation): oalWire
	// those in un-sequenced messages still on the wire, oalLost those in
	// messages the network dropped and in flushes the failure layer
	// abandoned before any copy was admitted.
	oalWire, oalLost int64

	// Failure-tolerance layer (failure.go); fd is nil until the first
	// SpawnThread with Cfg.Failure set, fcfg is Cfg.Failure resolved with
	// defaults.
	fd     *failureDetector
	fcfg   FailureConfig
	fstats FailureStats
	// healthLs are the registered push-form health listeners (the event
	// feed behind HealthSnapshot); see AddHealthListener.
	healthLs []func(node int, alive bool)
}

// newRecord returns a zeroed OAL record, reusing a recycled one if possible.
// A fresh record gets room for size entries; a recycled one keeps its own.
func (k *Kernel) newRecord(size int) *oal.Record {
	if n := len(k.recPool); n > 0 {
		r := k.recPool[n-1]
		k.recPool = k.recPool[:n-1]
		return r
	}
	return &oal.Record{Entries: make([]oal.Entry, 0, size)}
}

// recycleRecord returns a fully consumed record to the pool. The caller must
// not touch r afterwards.
func (k *Kernel) recycleRecord(r *oal.Record) {
	if r == nil {
		return
	}
	r.Reset()
	k.recPool = append(k.recPool, r)
}

// newOALBuf returns an empty record buffer, reusing a freed one if possible
// (nil when none is free: the first append allocates).
func (k *Kernel) newOALBuf() []*oal.Record {
	n := len(k.oalBufs)
	if n == 0 {
		return nil
	}
	buf := k.oalBufs[n-1]
	k.oalBufs[n-1] = nil
	k.oalBufs = k.oalBufs[:n-1]
	return buf
}

// freeOALBuf returns a drained record buffer once the master has consumed
// it. The records themselves are not touched: ingested ones are already
// back in recPool, and the buffer drops its pointers so that it pins none.
// The caller must not use recs afterwards.
func (k *Kernel) freeOALBuf(recs []*oal.Record) {
	if cap(recs) == 0 {
		return
	}
	clear(recs)
	k.oalBufs = append(k.oalBufs, recs[:0])
}

// KernelStats aggregates protocol and profiling counters across the run.
type KernelStats struct {
	Faults          int64 // remote object faults (genuine)
	FaultBytes      int64
	CorrelationLogs int64 // OAL entries written
	FalseInvalidHit int64 // correlation faults taken
	Resets          int64 // false-invalid resets at interval open
	DiffBytes       int64
	DiffMessages    int64
	Intervals       int64
	LockAcquires    int64
	Barriers        int64
	OALRecords      int64
	OALEntries      int64
	OALWireBytes    int64
	ResampledObjs   int64
	Checks          int64 // access fast-path checks
	HomeMigrations  int64
}

// NewKernel builds a kernel: engine, network (the network package's Fast
// Ethernet model), nodes and master collector.
func NewKernel(cfg Config) *Kernel {
	if cfg.Nodes <= 0 {
		panic("gos: need at least one node")
	}
	if cfg.OALFlushEntries <= 0 {
		cfg.OALFlushEntries = 4096
	}
	eng := sim.NewEngine()
	k := &Kernel{
		Eng:      eng,
		Reg:      heap.NewRegistry(),
		Net:      network.New(eng),
		Cfg:      cfg,
		barriers: make(map[int]*barrierState),
	}
	if cfg.Failure != nil {
		k.fcfg = cfg.Failure.withDefaults()
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := newNode(k, i)
		k.nodes = append(k.nodes, n)
		k.Net.Bind(network.NodeID(i), n.handleMessage)
	}
	k.master = newMaster(k)
	return k
}

// Node returns the i-th node.
func (k *Kernel) Node(i int) *Node { return k.nodes[i] }

// NumNodes returns the cluster size.
func (k *Kernel) NumNodes() int { return len(k.nodes) }

// Threads returns a copy of all spawned threads in id order; loops that
// run often walk NumThreads and Thread instead.
func (k *Kernel) Threads() []*Thread { return append([]*Thread(nil), k.threads...) }

// Master returns the correlation collector / analyzer on node 0.
func (k *Kernel) Master() *Master { return k.master }

// Stats returns a snapshot of kernel counters.
func (k *Kernel) Stats() KernelStats { return k.stats }

// AddObserver registers a profiling observer of every thread, those
// already spawned and those spawned later. On each thread it runs after the
// observers already registered there.
func (k *Kernel) AddObserver(obs AccessObserver) {
	k.observers = append(k.observers, obs)
	for _, t := range k.threads {
		t.AddObserver(obs)
	}
}

// version reads the home version without growing the table (objects never
// written stay at version 0).
func (k *Kernel) version(id heap.ObjectID) int32 {
	if v := k.versions.Peek(id); v != nil {
		return *v
	}
	return 0
}

// bumpVersion applies one committed update at the home.
func (k *Kernel) bumpVersion(id heap.ObjectID) {
	if id <= heap.InvalidObject {
		panic("gos: bumpVersion on invalid object id")
	}
	v := k.versions.At(id)
	if *v == math.MaxInt32 {
		panic("gos: object version exceeds the int32 copy stamp")
	}
	*v++
}

// Run executes the simulation to completion and returns the workload
// execution time (daemon wind-down after the last thread finishes is
// excluded — it is what the paper's tables report).
func (k *Kernel) Run() sim.Time {
	k.Eng.Run()
	return k.WorkloadEndTime()
}

// RunUntil advances the simulation to virtual time limit and pauses at a
// global safe point (no proc mid-step). It returns true when the run has
// completed. While paused, callers may take snapshots, flush OALs, re-home
// objects, request thread migrations and retune sampling before resuming —
// the epoch-stepping substrate of the closed-loop session API.
func (k *Kernel) RunUntil(limit sim.Time) bool {
	return k.Eng.RunUntil(limit)
}

// NumThreads returns the spawned thread count.
func (k *Kernel) NumThreads() int { return len(k.threads) }

// Thread returns the i-th spawned thread.
func (k *Kernel) Thread(i int) *Thread { return k.threads[i] }

// Assignment returns the current thread→node placement.
func (k *Kernel) Assignment() []int { return k.AssignmentInto(nil) }

// AssignmentInto writes the current thread→node placement into dst's
// storage, growing it when it is too short, and returns it.
func (k *Kernel) AssignmentInto(dst []int) []int {
	if cap(dst) < len(k.threads) {
		dst = make([]int, len(k.threads))
	}
	dst = dst[:len(k.threads)]
	for i, t := range k.threads {
		dst[i] = t.node.id
	}
	return dst
}

// AllThreadsFinished reports whether every spawned thread body returned.
func (k *Kernel) AllThreadsFinished() bool {
	for _, t := range k.threads {
		if !t.finished {
			return false
		}
	}
	return len(k.threads) > 0
}

// WorkloadEndTime is the latest thread finish time (the application
// execution time, independent of profiling daemons still winding down).
func (k *Kernel) WorkloadEndTime() sim.Time {
	var end sim.Time
	for _, t := range k.threads {
		if t.finishedAt > end {
			end = t.finishedAt
		}
	}
	return end
}

// TCM builds the current correlation map from everything the master has
// ingested, charging the master's analyzer CPU.
func (k *Kernel) TCM() (*tcm.Map, tcm.BuildCost) {
	return k.master.Build(len(k.threads))
}

// ChargeResample counts objects re-tagged after a sampling-rate change
// notice in KernelStats.ResampledObjs. It charges no CPU; readers of the
// count price it at ResampleCostPerObject. (The resample pass is what the
// paper bounds at "no more than 0.1% of total CPU time".)
func (k *Kernel) ChargeResample(objects int) {
	k.stats.ResampledObjs += int64(objects)
}
