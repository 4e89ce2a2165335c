package gos

import (
	"jessica2/internal/network"
	"jessica2/internal/sim"
)

// This file is the kernel's failure-tolerance layer: a heartbeat/lease
// failure detector on the master, safe-point evacuation of dead nodes'
// threads, and a sequence-numbered ack/retry path for dedicated OAL
// flushes. Everything is sim-clock driven and deterministic — heartbeats,
// lease sweeps and retransmit timeouts are ordinary engine events, so a
// run under failures is exactly as reproducible as a clean one. The whole
// layer is gated on Config.Failure: when nil, no heartbeat traffic, no
// sequence numbers, no acks — byte-identical behavior to a build without
// this file.

// FailureConfig enables and tunes the failure-tolerance layer. Zero-valued
// fields take the DefaultFailureConfig values, so &FailureConfig{} is a
// fully defaulted enablement.
type FailureConfig struct {
	// HeartbeatInterval is the worker beat period. A worker skips a beat
	// when its CPU runs below suspendBelowSpeed, a fifth of its nominal
	// speed — that, not an explicit crash flag, is how the scenario
	// layer's crash crawl (scenario.DefaultCrashFactor) silences a node;
	// the detector cannot tell a dead node from a catatonic one, by
	// design.
	HeartbeatInterval sim.Time
	// LeaseTimeout is how long the master tolerates silence before
	// declaring a worker dead.
	LeaseTimeout sim.Time
	// SweepInterval is the master's lease-check period.
	SweepInterval sim.Time
	// FlushTimeout is the ack wait before the first OAL flush retransmit;
	// subsequent waits add FlushBackoff doubling per attempt, capped at
	// MaxFlushBackoff. After MaxFlushRetries retransmits the flush is
	// abandoned (profiling data is advisory — bounded loss degrades the
	// TCM, it must never wedge the run).
	FlushTimeout    sim.Time
	FlushBackoff    sim.Time
	MaxFlushBackoff sim.Time
	MaxFlushRetries int
}

// The failure layer's fixed parameters.
const (
	// suspendBelowSpeed gates heartbeat emission (see HeartbeatInterval).
	suspendBelowSpeed = 0.2
	// heartbeatBytes is the on-wire size of one beat.
	heartbeatBytes = 32
	// evacPayloadBytes is the migration payload per evacuated thread
	// (stack context; no sticky set is prefetched on an emergency move).
	evacPayloadBytes = 2048
	// decayFactor scales a dead node's threads' accumulated correlations
	// (tcm DecayThreads) when death is declared.
	decayFactor = 0.5
)

// DefaultFailureConfig returns the defaulted enablement.
func DefaultFailureConfig() *FailureConfig {
	return &FailureConfig{
		HeartbeatInterval: 20 * sim.Millisecond,
		LeaseTimeout:      60 * sim.Millisecond,
		SweepInterval:     20 * sim.Millisecond,
		FlushTimeout:      30 * sim.Millisecond,
		FlushBackoff:      10 * sim.Millisecond,
		MaxFlushBackoff:   200 * sim.Millisecond,
		MaxFlushRetries:   6,
	}
}

// withDefaults fills zero-valued fields.
func (fc FailureConfig) withDefaults() FailureConfig {
	d := DefaultFailureConfig()
	if fc.HeartbeatInterval <= 0 {
		fc.HeartbeatInterval = d.HeartbeatInterval
	}
	if fc.LeaseTimeout <= 0 {
		fc.LeaseTimeout = d.LeaseTimeout
	}
	if fc.SweepInterval <= 0 {
		fc.SweepInterval = d.SweepInterval
	}
	if fc.FlushTimeout <= 0 {
		fc.FlushTimeout = d.FlushTimeout
	}
	if fc.FlushBackoff <= 0 {
		fc.FlushBackoff = d.FlushBackoff
	}
	if fc.MaxFlushBackoff <= 0 {
		fc.MaxFlushBackoff = d.MaxFlushBackoff
	}
	if fc.MaxFlushRetries <= 0 {
		fc.MaxFlushRetries = d.MaxFlushRetries
	}
	return fc
}

// FailureStats counts failure-layer activity. It is a struct separate from
// KernelStats on purpose: reports render KernelStats verbatim, and the
// failure-disabled goldens must stay byte-identical.
type FailureStats struct {
	HeartbeatsSent    int64 // beats that reached the wire
	HeartbeatsSkipped int64 // beats suppressed below suspendBelowSpeed
	LeaseExpiries     int64 // workers declared dead
	NodeRecoveries    int64 // declared-dead workers heard from again
	Evacuations       int64 // safe-point thread moves requested off dead nodes
	DecayPasses       int64 // TCM quarantine/decay passes
	FlushesSent       int64 // sequence-numbered OAL flushes initiated
	FlushRetries      int64 // retransmits after ack timeout
	FlushesAcked      int64
	FlushesAbandoned  int64 // gave up after MaxFlushRetries
	DuplicateFlushes  int64 // master-side dedup hits (re-acked, not re-ingested)
	LockFailovers     int64 // locks re-homed off declared-dead managers
	LockReclaims      int64 // wedged locks freed after their holder's node died
}

// NodeHealth is one node's liveness and flush-path state.
type NodeHealth struct {
	Node  int
	Alive bool
	// LastBeat is the master's view of the node's last heartbeat (zero for
	// node 0, which is trivially alive).
	LastBeat sim.Time
	// InflightFlushes is the node's unacked OAL flush count; LastAckAt is
	// when it last heard an ack — together the flush-path staleness signal.
	InflightFlushes int
	LastAckAt       sim.Time
}

// HealthSnapshot is the failure layer's state at a point in virtual time,
// the health feed policies consume from session snapshots.
type HealthSnapshot struct {
	LiveNodes int
	Nodes     []NodeHealth
	Stats     FailureStats
}

// FailureEnabled reports whether the failure-tolerance layer is on.
func (k *Kernel) FailureEnabled() bool { return k.Cfg.Failure != nil }

// AddHealthListener registers a callback on the failure detector's
// declare-dead and revival transitions — the push form of the HealthSnapshot
// poll, for consumers that must react at event granularity (the serving
// path's circuit breakers re-dispatch a dead node's queued requests from
// here). Listeners fire inside the detector's own engine events (the lease
// sweep, a revival beat), so their ordering is as deterministic as the
// detector itself. Registration alone schedules nothing and charges
// nothing: a run with passive listeners is byte-identical to one without.
// Listeners are never invoked when the failure layer is disabled.
func (k *Kernel) AddHealthListener(fn func(node int, alive bool)) {
	if fn == nil {
		return
	}
	k.healthLs = append(k.healthLs, fn)
}

// notifyHealth fans a liveness transition out to the registered listeners.
func (k *Kernel) notifyHealth(node int, alive bool) {
	for _, fn := range k.healthLs {
		fn(node, alive)
	}
}

// FailureStats returns a snapshot of the failure-layer counters.
func (k *Kernel) FailureStats() FailureStats { return k.fstats }

// HealthInto fills a health snapshot, reusing dst's storage (nil
// allocates). Returns nil when the failure layer is disabled.
func (k *Kernel) HealthInto(dst *HealthSnapshot) *HealthSnapshot {
	if !k.FailureEnabled() {
		return nil
	}
	if dst == nil {
		dst = &HealthSnapshot{}
	}
	dst.Nodes = dst.Nodes[:0]
	live := 0
	for i, n := range k.nodes {
		h := NodeHealth{Node: i, Alive: true,
			InflightFlushes: len(n.inflight), LastAckAt: n.lastAckAt}
		if k.fd != nil && i > 0 {
			h.Alive = !k.fd.dead[i]
			h.LastBeat = k.fd.lastBeat[i]
		}
		if h.Alive {
			live++
		}
		dst.Nodes = append(dst.Nodes, h)
	}
	dst.LiveNodes = live
	dst.Stats = k.fstats
	return dst
}

// failureDetector is the master-side lease table plus the per-source flush
// dedup state. Created lazily at the first SpawnThread (heartbeat and
// sweep loops are recurring engine events; they stop rescheduling once all
// threads finish, so the event queue still drains).
type failureDetector struct {
	k        *Kernel
	lastBeat []sim.Time
	dead     []bool
	seen     []map[int64]bool // per-source admitted flush seqs
}

// startFailureDetector is idempotent; a no-op when failure is disabled or
// the cluster has no workers to watch.
func (k *Kernel) startFailureDetector() {
	if !k.FailureEnabled() || k.fd != nil || k.NumNodes() < 2 {
		return
	}
	fd := &failureDetector{
		k:        k,
		lastBeat: make([]sim.Time, k.NumNodes()),
		dead:     make([]bool, k.NumNodes()),
		seen:     make([]map[int64]bool, k.NumNodes()),
	}
	k.fd = fd
	now := k.Eng.Now()
	for i := 1; i < k.NumNodes(); i++ {
		fd.lastBeat[i] = now // the lease clock starts when watching starts
		fd.startBeats(k.nodes[i])
	}
	fd.startSweep()
}

// startBeats runs the worker's heartbeat loop.
func (fd *failureDetector) startBeats(n *Node) {
	fc := &fd.k.fcfg
	var beat func()
	beat = func() {
		if fd.k.AllThreadsFinished() {
			return
		}
		if n.cpu.Speed() >= suspendBelowSpeed {
			fd.k.fstats.HeartbeatsSent++
			fd.k.Net.Send(network.NodeID(n.id), 0, network.CatControl,
				heartbeatBytes, fd.k.newMsg(protoMsg{kind: msgHeartbeat}))
		} else {
			fd.k.fstats.HeartbeatsSkipped++
		}
		fd.k.Eng.After(fc.HeartbeatInterval, beat)
	}
	fd.k.Eng.After(fc.HeartbeatInterval, beat)
}

// startSweep runs the master's lease-expiry loop.
func (fd *failureDetector) startSweep() {
	fc := &fd.k.fcfg
	var sweep func()
	sweep = func() {
		if fd.k.AllThreadsFinished() {
			return
		}
		now := fd.k.Eng.Now()
		for i := 1; i < fd.k.NumNodes(); i++ {
			if !fd.dead[i] && now-fd.lastBeat[i] > fc.LeaseTimeout {
				fd.declareDead(i)
			}
		}
		fd.k.reclaimDeadHolderLocks()
		fd.k.Eng.After(fc.SweepInterval, sweep)
	}
	fd.k.Eng.After(fc.SweepInterval, sweep)
}

// onBeat refreshes a worker's lease; a beat from a declared-dead worker
// (restart, or a healed partition releasing deferred beats) revives it.
func (fd *failureDetector) onBeat(node int) {
	if node <= 0 || node >= len(fd.lastBeat) {
		return
	}
	fd.lastBeat[node] = fd.k.Eng.Now()
	if fd.dead[node] {
		fd.dead[node] = false
		fd.k.fstats.NodeRecoveries++
		fd.k.restoreLocks(node)
		fd.k.notifyHealth(node, true)
	}
}

// declareDead expires a worker's lease: its threads' accumulated
// correlations are decayed (graceful degradation — stale evidence must not
// dominate future placement) and its unfinished threads are asked to
// evacuate at their next safe point, each to the least-loaded live node
// (lowest id on ties). Iteration is in thread-id order, so targets are
// deterministic.
func (fd *failureDetector) declareDead(node int) {
	fd.dead[node] = true
	fd.k.fstats.LeaseExpiries++
	fd.k.failoverLocks(node)
	fd.k.notifyHealth(node, false)

	var deadThreads []int
	load := make([]int, fd.k.NumNodes())
	for _, t := range fd.k.threads {
		if t.finished {
			continue
		}
		load[t.node.id]++
		if t.node.id == node {
			deadThreads = append(deadThreads, t.id)
		}
	}
	if len(deadThreads) > 0 {
		fd.k.master.DecayThreads(deadThreads, decayFactor)
		fd.k.fstats.DecayPasses++
	}
	for _, tid := range deadThreads {
		target := fd.evacTarget(load)
		if target < 0 {
			return // no live node left to take them
		}
		load[target]++
		fd.k.threads[tid].AtSafePoint(func(th *Thread) { th.MoveTo(target, evacPayloadBytes) })
		fd.k.fstats.Evacuations++
	}
}

// evacTarget picks the least-loaded live node, lowest id on ties; -1 when
// every node is dead.
func (fd *failureDetector) evacTarget(load []int) int {
	best := -1
	for i := 0; i < fd.k.NumNodes(); i++ {
		if i > 0 && fd.dead[i] {
			continue
		}
		if best < 0 || load[i] < load[best] {
			best = i
		}
	}
	return best
}

// admitFlush records a (source, seq) flush as ingested; false means it was
// already admitted (a retransmit racing its own ack, or an interceptor
// duplicate) and must not be re-ingested — ingestPayload recycles records
// into the kernel pool, so a second ingest of the same payload would
// corrupt it.
func (fd *failureDetector) admitFlush(src int, seq int64) bool {
	if src < 0 || src >= len(fd.seen) {
		return true
	}
	m := fd.seen[src]
	if m == nil {
		m = make(map[int64]bool)
		fd.seen[src] = m
	}
	if m[seq] {
		return false
	}
	m[seq] = true
	return true
}

// admitted reports whether the master has ingested the (source, seq) flush.
func (fd *failureDetector) admitted(src int, seq int64) bool {
	return fd != nil && src < len(fd.seen) && fd.seen[src][seq]
}

// --- reliable OAL flush path (worker side) ---------------------------------

const flushAckBytes = 16

// flushWait is the ack wait before retransmit number attempt+1:
// FlushTimeout first, then + FlushBackoff doubling per attempt, capped.
func (k *Kernel) flushWait(attempt int) sim.Time {
	if attempt == 0 {
		return k.fcfg.FlushTimeout
	}
	b := k.fcfg.FlushBackoff << uint(attempt-1)
	if b <= 0 || b > k.fcfg.MaxFlushBackoff { // <= 0 catches shift overflow
		b = k.fcfg.MaxFlushBackoff
	}
	return k.fcfg.FlushTimeout + b
}

// sendFlush ships one drained OAL payload under the reliable path: it gets
// the node's next sequence number, is tracked until acked, and is
// retransmitted on timeout with capped exponential backoff until
// MaxFlushRetries, after which it is abandoned (bounded loss, surfaced in
// FailureStats and the health snapshot).
func (n *Node) sendFlush(p oalPayload) {
	if n.inflight == nil {
		n.inflight = make(map[int64]oalPayload)
	}
	n.flushSeq++
	n.inflight[n.flushSeq] = p
	n.k.fstats.FlushesSent++
	n.transmitFlush(n.flushSeq, p, 0)
}

func (n *Node) transmitFlush(seq int64, p oalPayload, attempt int) {
	n.k.Net.Send(network.NodeID(n.id), 0, network.CatOAL, p.wire,
		n.k.newMsg(protoMsg{kind: msgOALBatch, tok: seq, pl: p}))
	n.k.Eng.After(n.k.flushWait(attempt), func() {
		if _, waiting := n.inflight[seq]; !waiting {
			return // acked in the meantime
		}
		if attempt >= n.k.fcfg.MaxFlushRetries {
			delete(n.inflight, seq)
			n.k.fstats.FlushesAbandoned++
			if !n.k.fd.admitted(n.id, seq) {
				n.k.oalLost += int64(p.entries)
			}
			return
		}
		n.k.fstats.FlushRetries++
		n.transmitFlush(seq, p, attempt+1)
	})
}

// onFlushAck retires an inflight flush; late duplicate acks are ignored.
func (n *Node) onFlushAck(seq int64) {
	if _, ok := n.inflight[seq]; !ok {
		return
	}
	delete(n.inflight, seq)
	n.lastAckAt = n.k.Eng.Now()
	n.k.fstats.FlushesAcked++
}

// receiveFlush is the master-side (node 0) ingestion of a sequenced OAL
// flush: it is deduplicated BEFORE ingestion and always acked — acking a
// duplicate is what makes retransmits safe. An un-sequenced flush (failure
// layer off) is ingested at its last delivery, like any payload (see
// handleMessage).
func (n *Node) receiveFlush(from network.NodeID, pm *protoMsg) {
	if pm.tok == 0 {
		return
	}
	if n.k.fd == nil || n.k.fd.admitFlush(int(from), pm.tok) {
		if _, waiting := n.k.nodes[from].inflight[pm.tok]; !waiting {
			// A late copy of a flush its sender has abandoned.
			n.k.oalLost -= int64(pm.pl.entries)
		}
		n.k.master.ingestPayload(pm.pl)
	} else {
		n.k.fstats.DuplicateFlushes++
	}
	n.k.Net.Send(network.NodeID(n.id), from, network.CatControl, flushAckBytes,
		n.k.newMsg(protoMsg{kind: msgOALAck, tok: pm.tok}))
}
