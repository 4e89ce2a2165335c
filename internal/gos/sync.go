package gos

import (
	"fmt"
	"iter"

	"jessica2/internal/network"
)

// lockState lives on the lock's manager node — statically id % nodes, but
// the manager fails over to the master while that node is declared dead
// (see failoverLocks), so `home` is the current manager, not the hash.
type lockState struct {
	home  int
	used  bool // the lock exists: some thread has named it
	held  bool
	queue []lockWaiter
	// Failover bookkeeping. gen fences stale in-flight releases: a release
	// lost toward a dead manager is accounted for by the failover rebuild,
	// and its eventual delivery (the scenario layer defers such messages to
	// the node's restart) must not unlock the next holder's critical
	// section. holder/granting/holderDone are the survivor-side truth the
	// rebuild consults: who was last granted, whether that grant is still
	// on the wire, and whether the holder has already sent its release.
	gen        int64
	holder     *Thread
	granting   bool
	grantee    lockWaiter
	holderDone bool
	// inflight is the set of lock requests sent but not yet received by
	// the manager — the survivor-side "I asked and heard nothing" truth.
	// Failover resends them to the new manager under the bumped
	// generation; the adrift originals are fenced on arrival.
	inflight []lockWaiter
}

type lockWaiter struct {
	node network.NodeID
	tok  int64
}

func (k *Kernel) lockHome(id int) int { return id % len(k.nodes) }

// The lock table's pages are lockPageLen entries long.
const (
	lockPageShift = 6
	lockPageLen   = 1 << lockPageShift
	lockPageMask  = lockPageLen - 1
)

// lockTable holds every lock's state by value, indexed by lock id. A page
// is allocated the first time an id in its range is used and never moves,
// so a *lockState stays valid for the kernel's lifetime, across a parked
// proc. Untouched id ranges cost one nil page pointer each, so memory
// follows the id ranges in use (ServeMix's stripes start at 11000), not
// the largest id.
type lockTable struct {
	pages []*[lockPageLen]lockState
}

// all yields every lock in use, in ascending id order.
func (tb *lockTable) all() iter.Seq2[int, *lockState] {
	return func(yield func(int, *lockState) bool) {
		for p, pg := range tb.pages {
			if pg == nil {
				continue
			}
			for i := range pg {
				if ls := &pg[i]; ls.used && !yield(p<<lockPageShift|i, ls) {
					return
				}
			}
		}
	}
}

// peek returns lock id's state, or nil when no thread has used the lock.
func (tb *lockTable) peek(id int) *lockState {
	p := id >> lockPageShift
	if id < 0 || p >= len(tb.pages) || tb.pages[p] == nil {
		return nil
	}
	if ls := &tb.pages[p][id&lockPageMask]; ls.used {
		return ls
	}
	return nil
}

// lock returns lock id's state, creating the lock on first use.
func (k *Kernel) lock(id int) *lockState {
	if id < 0 {
		panic(fmt.Sprintf("gos: negative lock id %d", id))
	}
	tb := &k.locks
	p := id >> lockPageShift
	if p >= len(tb.pages) {
		tb.pages = append(tb.pages, make([]*[lockPageLen]lockState, p+1-len(tb.pages))...)
	}
	pg := tb.pages[p]
	if pg == nil {
		pg = new([lockPageLen]lockState)
		tb.pages[p] = pg
	}
	ls := &pg[id&lockPageMask]
	if !ls.used {
		ls.used = true
		ls.home = k.lockHome(id)
		if k.fd != nil && ls.home > 0 && k.fd.dead[ls.home] {
			ls.home = 0 // manager is down: the master adopts the lock
		}
	}
	return ls
}

// LockAvailable reports whether the distributed lock is currently free at
// its manager (not held and not mid-grant). The serving layer uses it to
// tell a stripe that is merely busy from one whose lock is wedged behind a
// holder stranded on a crashed node.
func (k *Kernel) LockAvailable(id int) bool {
	ls := k.locks.peek(id)
	return ls == nil || !ls.held
}

// failoverLocks re-homes every lock managed by the dead node onto the
// master and rebuilds held-state from survivor-side truth: a lock whose
// holder already sent its release (now lost in flight toward the dead
// manager) is freed — granted to the next queued waiter — and its
// generation bumped so the stale release is ignored when the dead node's
// deferred traffic finally drains. Iteration is in lock-id order for
// determinism.
func (k *Kernel) failoverLocks(dead int) {
	if dead == 0 {
		return
	}
	for id, ls := range k.locks.all() {
		if ls.home != dead {
			continue
		}
		ls.home = 0
		k.fstats.LockFailovers++
		releaseLost := ls.held && !ls.granting && ls.holderDone
		grantAdrift := ls.granting // issued by the dead manager, undelivered
		if !releaseLost && !grantAdrift && len(ls.inflight) == 0 {
			continue // nothing adrift: a plain re-home suffices
		}
		// Traffic is adrift toward the dead manager; supersede it.
		ls.gen++
		if releaseLost {
			k.reclaimLock(id, ls)
		} else if grantAdrift {
			k.grantLock(id, ls, ls.grantee) // re-issue from the new manager
		}
		k.resendInflight(id, ls)
	}
}

// resendInflight re-issues every adrift lock request under the lock's
// current generation (the requester's runtime notices the manager change;
// the blocked thread itself stays blocked until its grant). Every
// generation bump must be followed by this, or the fence orphans the
// adrift requesters. A resend from a node that is itself down travels
// under that node's own fate — it arrives when the node does.
func (k *Kernel) resendInflight(id int, ls *lockState) {
	for _, w := range ls.inflight {
		k.Net.Send(w.node, network.NodeID(ls.home), network.CatControl, 24,
			k.newMsg(protoMsg{kind: msgLockReq, lock: id, tok: w.tok, gen: ls.gen}))
	}
}

// reclaimLock hands a released-but-wedged lock to its next waiter (or
// frees it). The caller has already bumped the generation so the adrift
// release is fenced on arrival.
func (k *Kernel) reclaimLock(id int, ls *lockState) {
	ls.holder = nil
	ls.holderDone = false
	if len(ls.queue) > 0 {
		next := ls.queue[0]
		copy(ls.queue, ls.queue[1:])
		ls.queue = ls.queue[:len(ls.queue)-1]
		k.grantLock(id, ls, next)
	} else {
		ls.held = false
	}
}

// reclaimDeadHolderLocks frees every lock whose last holder already sent
// its release from a node that has since been declared dead — the release
// is adrift until that node restarts, and without reclamation the lock
// (and every request serialized behind it) stays wedged for the whole
// outage. Runs from the failure detector's sweep; lock-id order for
// determinism. A sweep that finds no wedged lock allocates nothing.
func (k *Kernel) reclaimDeadHolderLocks() {
	for id, ls := range k.locks.all() {
		if ls.held && !ls.granting && ls.holderDone &&
			ls.holder != nil && k.fd.dead[ls.holder.node.id] {
			ls.gen++
			k.fstats.LockReclaims++
			k.reclaimLock(id, ls)
			k.resendInflight(id, ls)
		}
	}
}

// restoreLocks returns management of the revived node's locks to it.
// In-flight traffic is unaffected: lock state is kernel-global, and the
// manager only determines message endpoints from here on.
func (k *Kernel) restoreLocks(revived int) {
	for id, ls := range k.locks.all() {
		if ls.home != k.lockHome(id) && k.lockHome(id) == revived {
			ls.home = revived
		}
	}
}

// Acquire obtains the distributed lock, applying remote write notices on
// grant (the node's sync epoch advances, so cached copies revalidate
// lazily). OALs piggyback on the request when the manager is the master.
func (t *Thread) Acquire(lockID int) {
	t.flushCPU()
	ls := t.k.lock(lockID)
	home := ls.home
	tok := t.node.newToken(t)
	var pl oalPayload
	if home == 0 {
		pl = t.node.drainOAL(t)
	}
	ls.inflight = append(ls.inflight, lockWaiter{node: network.NodeID(t.node.id), tok: tok})
	t.sendSync(home, 24, pl, protoMsg{kind: msgLockReq, lock: lockID, tok: tok, gen: ls.gen})
	t.proc.BlockOn("lock", lockID)
	// The grant has landed: it is no longer on the wire.
	ls.granting = false
	t.node.advanceEpoch()
	t.k.stats.LockAcquires++
}

// Release closes the current interval (flushing diffs and the OAL record)
// and returns the lock to its manager.
func (t *Thread) Release(lockID int) {
	t.closeInterval()
	t.flushCPU()
	ls := t.k.lock(lockID)
	ls.holderDone = true
	home := ls.home
	var pl oalPayload
	if home == 0 {
		pl = t.node.drainOAL(t)
	}
	t.sendSync(home, 16, pl, protoMsg{kind: msgLockRelease, lock: lockID, gen: ls.gen})
}

// sendSync sends the synchronization message v, carrying ctlBytes of
// control data, to node to; the drained OAL payload pl, when there is one,
// piggybacks on it. The parts list lives on the stack; SendParts copies it.
func (t *Thread) sendSync(to, ctlBytes int, pl oalPayload, v protoMsg) {
	parts := [2]network.Part{{Cat: network.CatControl, Bytes: ctlBytes}}
	if pl.empty() {
		t.k.Net.SendParts(network.NodeID(t.node.id), network.NodeID(to), parts[:1], t.k.newMsg(v))
		return
	}
	parts[1] = network.Part{Cat: network.CatOAL, Bytes: pl.wire}
	v.pl = pl
	t.k.sendPayload(t.node.id, to, parts[:], v)
}

// lockRequest runs on the manager node (scheduler context). A request from
// a superseded generation was already resent to the failover manager by the
// time the adrift original drains; granting it twice would double-wake the
// requester, so it is dropped (its piggybacked payload still ingests at the
// message's last delivery, as every payload does — the data is real
// regardless of the lock protocol's fate).
func (k *Kernel) lockRequest(id int, from network.NodeID, tok int64, gen int64) {
	ls := k.lock(id)
	for i, w := range ls.inflight {
		if w.node == from && w.tok == tok {
			ls.inflight = append(ls.inflight[:i], ls.inflight[i+1:]...)
			break
		}
	}
	if gen != ls.gen {
		return
	}
	k.Eng.AfterEvent(lockServiceCost,
		(*lockReqService)(k.newMsg(protoMsg{lock: id, tok: tok, peer: from})))
}

// lockReqService grants or queues a lock request once the manager's
// service cost has elapsed; a pooled protoMsg carries its state.
type lockReqService protoMsg

func (e *lockReqService) Fire() {
	pm := (*protoMsg)(e)
	k, id, w := pm.k, pm.lock, lockWaiter{node: pm.peer, tok: pm.tok}
	k.freeMsg(pm)
	ls := k.lock(id)
	if !ls.held {
		ls.held = true
		k.grantLock(id, ls, w)
		return
	}
	ls.queue = append(ls.queue, w)
}

// lockRelease runs on the manager node. A release from a superseded
// generation was already accounted by a failover rebuild and is dropped.
func (k *Kernel) lockRelease(id int, gen int64) {
	ls := k.lock(id)
	if gen != ls.gen {
		return
	}
	k.Eng.AfterEvent(lockServiceCost,
		(*lockRelService)(k.newMsg(protoMsg{lock: id, gen: gen})))
}

// lockRelService frees a released lock, or hands it to the next waiter,
// once the manager's service cost has elapsed.
type lockRelService protoMsg

func (e *lockRelService) Fire() {
	pm := (*protoMsg)(e)
	k, id, gen := pm.k, pm.lock, pm.gen
	k.freeMsg(pm)
	ls := k.lock(id)
	if gen != ls.gen {
		return // rebuilt while the service cost elapsed
	}
	if len(ls.queue) == 0 {
		ls.held = false
		ls.holder = nil
		ls.holderDone = false
		return
	}
	next := ls.queue[0]
	copy(ls.queue, ls.queue[1:])
	ls.queue = ls.queue[:len(ls.queue)-1]
	k.grantLock(id, ls, next)
}

// grantLock issues the grant from the lock's current manager. Grants are
// generation-stamped like releases: a grant adrift toward (or from) a dead
// node can be superseded by a failover re-issue, and only the current
// generation's copy may wake the grantee.
func (k *Kernel) grantLock(id int, ls *lockState, w lockWaiter) {
	ls.holder = k.nodes[int(w.node)].pending[w.tok]
	ls.granting = true
	ls.grantee = w
	ls.holderDone = false
	k.Net.Send(network.NodeID(ls.home), w.node, network.CatControl, 16,
		k.newMsg(protoMsg{kind: msgLockGrant, lock: id, tok: w.tok, gen: ls.gen}))
}

// barrierState lives on the master node.
type barrierState struct {
	parties int
	arrived []lockWaiter
}

// Barrier joins a cluster-wide barrier with the given party count. The
// calling thread's interval closes, its OALs piggyback on the arrival
// message (the barrier manager is the master JVM), and on release the
// node's sync epoch advances.
func (t *Thread) Barrier(barrierID, parties int) {
	if parties <= 0 {
		panic("gos: barrier needs positive party count")
	}
	t.closeInterval()
	t.flushCPU()
	tok := t.node.newToken(t)
	pl := t.node.drainOAL(t)
	t.sendSync(0, 16, pl, protoMsg{kind: msgBarrierArrive, bar: barrierID, tok: tok, parties: parties})
	t.proc.BlockOn("barrier", barrierID)
	t.node.advanceEpoch()
}

// barrierArrive runs on the master node. The party count travels in every
// arrival message; arrivals must agree on it.
func (k *Kernel) barrierArrive(id int, from network.NodeID, tok int64, parties int) {
	bs := k.barriers[id]
	if bs == nil {
		bs = &barrierState{parties: parties}
		k.barriers[id] = bs
	}
	if bs.parties != parties {
		panic(fmt.Sprintf("gos: barrier %d party mismatch: %d vs %d", id, bs.parties, parties))
	}
	bs.arrived = append(bs.arrived, lockWaiter{node: from, tok: tok})
	if len(bs.arrived) >= bs.parties {
		waiters := bs.arrived
		bs.arrived = nil
		k.stats.Barriers++
		k.Eng.After(barrierServiceCost, func() {
			for _, w := range waiters {
				k.Net.Send(0, w.node, network.CatControl, 16,
					k.newMsg(protoMsg{kind: msgBarrierRelease, tok: w.tok}))
			}
		})
	}
}
