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

// copyState is one node's replica header for a shared object: the 2-bit
// object state of the paper (valid/invalid) plus the false-invalid flag
// that triggers correlation faults, the fetched version (write-notice
// equivalent), and twin bookkeeping for the current interval. present marks
// a header the node has created; the zero entry is "never touched". The
// header is 12 bytes: the access path reads one on every access.
type copyState struct {
	version      int32 // home version at fetch time
	checkedEpoch int32 // last sync epoch at which staleness was evaluated
	valid        bool
	falseInvalid bool
	hasTwin      bool
	present      bool
}

// Node is one worker JVM: local heap cache, CPU, OAL buffer.
type Node struct {
	k   *Kernel
	id  int
	cpu *sim.Resource

	// copies is the node's replica-header table, indexed by ObjectID, so
	// the per-access lookup is a page index rather than a map probe. A
	// header is present from the node's first touch of the object on.
	copies    heap.Table[copyState]
	numCopies int
	// epoch advances at every synchronization point observed by the node
	// (lock acquire, barrier release); cached copies are re-validated
	// against home versions lazily when first touched in a new epoch. It
	// stamps the copy headers, so it stays within int32 (advanceEpoch
	// checks).
	epoch int32

	// oalBuf holds closed-interval records awaiting shipment to master; a
	// drain hands it to the payload and takes a recycled buffer in its
	// place (Kernel.newOALBuf).
	oalBuf        []*oal.Record
	oalBufEntries int

	// summBuilder is the worker-side reorganization daemon reused across
	// distributed-TCM flushes (a fresh builder per drain would re-allocate
	// per-object state every jumbo message); rebuilt only when the thread
	// count grows. Only Summarize is read from it, so the incremental
	// builder's pair accumulator is dead weight here, but its bitset
	// ingestion (one bit test per repeat entry) and sort-free Summarize
	// more than pay for the bounded O(N²) clear at Reset.
	summBuilder *tcm.Builder

	// pending maps in-flight remote-operation tokens to the blocked thread.
	pending map[int64]*Thread
	nextTok int64

	// Reliable OAL flush state (failure.go); all zero when the failure
	// layer is off. inflight maps sequence numbers to unacked payloads.
	flushSeq  int64
	inflight  map[int64]oalPayload
	lastAckAt sim.Time
}

func newNode(k *Kernel, id int) *Node {
	return &Node{
		k:       k,
		id:      id,
		cpu:     sim.NewResource(nodeName(id) + ".cpu"),
		pending: make(map[int64]*Thread),
	}
}

// nodeName names a node by two decimal digits, tens first: node02, node12.
func nodeName(id int) string {
	return "node" + string(rune('0'+id/10%10)) + string(rune('0'+id%10))
}

// ID returns the node index.
func (n *Node) ID() int { return n.id }

// CPU returns the node's processor resource.
func (n *Node) CPU() *sim.Resource { return n.cpu }

// copyAt returns the node's replica header for the object id, or nil if the
// node has never touched it.
func (n *Node) copyAt(id heap.ObjectID) *copyState {
	if c := n.copies.Peek(id); c != nil && c.present {
		return c
	}
	return nil
}

// copyOf returns (creating if needed) the node's replica header for o.
// Home-node copies are created valid; remote copies start invalid.
func (n *Node) copyOf(o *heap.Object) *copyState {
	c := n.copies.At(o.ID)
	if !c.present {
		c.present = true
		c.valid = o.Home == n.id
		n.numCopies++
	}
	return c
}

// --- message protocol ------------------------------------------------------

type msgKind int

const (
	msgFetchReq msgKind = iota
	msgFetchReply
	msgDiff
	msgOALBatch
	msgLockReq
	msgLockGrant
	msgLockRelease
	msgBarrierArrive
	msgBarrierRelease
	msgMigrateIn
	msgHeartbeat
	msgOALAck
)

type protoMsg struct {
	kind    msgKind
	tok     int64
	obj     heap.ObjectID
	lock    int
	bar     int
	parties int
	pl      oalPayload // OAL shipment of a flush or a synchronization message
	data    any
	gen     int64 // lock-manager generation (release fencing)

	// k is the kernel whose free list the message belongs to. home and
	// peer are the serving node and the requester of a service event (see
	// fetchService).
	k    *Kernel
	home network.NodeID
	peer network.NodeID
}

// newMsg returns a protoMsg holding v, reusing a recycled one if possible.
// A message goes back to the free list (freeMsg) after the last delivery
// of the network message that carries it, or when its service event has
// run; a payload whose message is dropped is left to the GC.
func (k *Kernel) newMsg(v protoMsg) *protoMsg {
	var pm *protoMsg
	if n := len(k.msgPool); n > 0 {
		pm = k.msgPool[n-1]
		k.msgPool[n-1] = nil
		k.msgPool = k.msgPool[:n-1]
	} else {
		pm = new(protoMsg)
	}
	*pm = v
	pm.k = k
	return pm
}

// freeMsg returns a consumed message to the free list. The caller must not
// touch pm afterwards.
func (k *Kernel) freeMsg(pm *protoMsg) {
	*pm = protoMsg{}
	k.msgPool = append(k.msgPool, pm)
}

// fetchService is the home node's fetch reply, sent once the service cost
// has elapsed: the pooled reply message is its own event.
type fetchService protoMsg

func (e *fetchService) Fire() {
	pm := (*protoMsg)(e)
	k := pm.k
	k.Net.Send(pm.home, pm.peer, network.CatGOSData, k.Reg.MustObject(pm.obj).Bytes(), pm)
}

// handleMessage is the node's network handler; it runs in scheduler context.
// The message's last delivery hands its OAL payload to the master and
// frees the record buffer, so a payload is ingested exactly once however
// often the network delivers it: a flush, a lock request or release, or a
// barrier arrival alike. A sequenced flush is the exception: receiveFlush
// ingests its first admitted delivery, and the sender's inflight table
// keeps its buffer for retransmits. The message itself goes back to the
// kernel's free list after its last delivery.
func (n *Node) handleMessage(m *network.Message) {
	pm := m.Payload.(*protoMsg)
	switch pm.kind {
	case msgFetchReq:
		// Home-side service: the reply leaves after the service cost.
		reply := n.k.newMsg(protoMsg{kind: msgFetchReply, tok: pm.tok, obj: pm.obj,
			home: network.NodeID(n.id), peer: m.From})
		n.k.Eng.AfterEvent(homeServiceCost, (*fetchService)(reply))
	case msgFetchReply:
		n.completePending(pm.tok)
	case msgDiff:
		// Versions were advanced synchronously at interval close (the
		// version table is the simulation's ground truth); this message
		// models the diff traffic and the home-side application cost.
		n.k.Eng.After(homeServiceCost, func() {})
	case msgOALBatch:
		n.receiveFlush(m.From, pm)
	case msgLockReq:
		n.k.lockRequest(pm.lock, m.From, pm.tok, pm.gen)
	case msgLockGrant:
		// A grant superseded by a failover re-issue is ignored.
		if pm.gen == n.k.lock(pm.lock).gen {
			n.completePending(pm.tok)
		}
	case msgLockRelease:
		n.k.lockRelease(pm.lock, pm.gen)
	case msgBarrierArrive:
		n.k.barrierArrive(pm.bar, m.From, pm.tok, pm.parties)
	case msgBarrierRelease:
		n.completePending(pm.tok)
	case msgMigrateIn:
		if fn, ok := pm.data.(func()); ok {
			fn()
		}
	case msgHeartbeat:
		if n.k.fd != nil {
			n.k.fd.onBeat(int(m.From))
		}
	case msgOALAck:
		n.onFlushAck(pm.tok)
	}
	if m.Final() {
		if !pm.pl.empty() && (pm.kind != msgOALBatch || pm.tok == 0) {
			n.k.oalWire -= int64(pm.pl.entries)
			n.k.master.ingestPayload(pm.pl)
			n.k.freeOALBuf(pm.pl.recs)
		}
		n.k.freeMsg(pm)
	}
}

// newToken registers a pending blocking operation for t.
func (n *Node) newToken(t *Thread) int64 {
	n.nextTok++
	tok := n.nextTok
	n.pending[tok] = t
	return tok
}

// completePending wakes the thread blocked on tok. Protocol replies carry no
// data the simulation needs beyond the wake itself (the version table is the
// global ground truth), so there is no reply value to hand over.
func (n *Node) completePending(tok int64) {
	t := n.pending[tok]
	if t == nil {
		panic("gos: unknown pending token")
	}
	delete(n.pending, tok)
	t.proc.Wake()
}

// advanceEpoch marks a synchronization point: cached copies will be lazily
// re-validated against home versions on next touch.
func (n *Node) advanceEpoch() {
	if n.epoch == math.MaxInt32 {
		panic("gos: node sync epoch exceeds the int32 copy stamp")
	}
	n.epoch++
}

// bufferOAL queues a closed interval's record; flushes a jumbo message when
// the threshold is reached. Returns parts to piggyback instead when the
// caller is about to send to the master anyway.
func (n *Node) bufferOAL(r *oal.Record) {
	if r == nil {
		return
	}
	if len(r.Entries) == 0 {
		n.k.recycleRecord(r)
		return
	}
	n.oalBuf = append(n.oalBuf, r)
	n.oalBufEntries += len(r.Entries)
	n.k.stats.OALRecords++
	n.k.stats.OALEntries += int64(len(r.Entries))
	if n.oalBufEntries >= n.k.Cfg.OALFlushEntries {
		n.flushOAL(nil)
	}
}

// oalPayload is a drained OAL shipment: either raw records (central mode)
// or a locally reorganized per-object summary (distributed mode). It
// travels by value, inside the pooled protoMsg and the failure layer's
// inflight table; the zero value is "nothing to send". The recs buffer
// goes back to the kernel's free list once the master has consumed it.
// entries counts the logged entries drained into it.
type oalPayload struct {
	recs    []*oal.Record
	sum     *tcm.Summary
	wire    int
	entries int
}

// empty reports whether the payload carries nothing.
func (p *oalPayload) empty() bool { return p.recs == nil && p.sum == nil }

// drainOAL empties the buffer for shipment, handing the node a recycled
// buffer in its place. In distributed-TCM mode the records are reorganized
// on the worker (charged to t when present — this is the reorganization
// work the extension moves off the master) and only the per-object summary
// travels; the emptied buffer stays with the node. Returns the zero
// payload if there is nothing to send.
func (n *Node) drainOAL(t *Thread) oalPayload {
	if !n.k.Cfg.TransferOALs || len(n.oalBuf) == 0 {
		return oalPayload{}
	}
	recs := n.oalBuf
	p := oalPayload{entries: n.oalBufEntries}
	n.oalBufEntries = 0
	if n.k.Cfg.DistributedTCM {
		if n.summBuilder == nil || n.summBuilder.N() != len(n.k.threads) {
			n.summBuilder = tcm.NewBuilder(len(n.k.threads))
		} else {
			n.summBuilder.Reset()
		}
		bl := n.summBuilder
		for _, r := range recs {
			bl.IngestRecord(r)
			n.k.recycleRecord(r)
		}
		clear(recs)
		n.oalBuf = recs[:0]
		if t != nil {
			t.Charge(sim.Time(p.entries) * tcmReorgCostPerEntry)
		}
		p.sum = bl.Summarize()
		p.wire = p.sum.WireBytes()
	} else {
		n.oalBuf = n.k.newOALBuf()
		p.recs = recs
		for _, r := range recs {
			p.wire += r.WireBytes()
		}
	}
	n.k.stats.OALWireBytes += int64(p.wire)
	return p
}

// flushOAL ships buffered records to the master in a dedicated jumbo
// message. The optional thread is charged packing CPU.
func (n *Node) flushOAL(t *Thread) {
	if !n.k.Cfg.TransferOALs {
		// Collection without transfer (Table II's O1 isolation): drop,
		// but still let the master learn entries locally at zero cost so
		// accuracy studies can run in-process.
		for _, r := range n.oalBuf {
			n.k.master.IngestLocal(r)
		}
		clear(n.oalBuf)
		n.oalBuf = n.oalBuf[:0]
		n.oalBufEntries = 0
		return
	}
	p := n.drainOAL(t)
	if p.empty() {
		return
	}
	if t != nil && p.recs != nil {
		t.Charge(sim.Time(p.entries) * oalPackCostPerEntry)
	}
	if n.id == 0 {
		// Local delivery to the master collector.
		n.k.master.ingestPayload(p)
		n.k.freeOALBuf(p.recs)
		return
	}
	if n.k.FailureEnabled() {
		n.sendFlush(p)
		return
	}
	parts := [1]network.Part{{Cat: network.CatOAL, Bytes: p.wire}}
	n.k.sendPayload(n.id, 0, parts[:], protoMsg{kind: msgOALBatch, pl: p})
}

// sendPayload sends v, which carries an un-sequenced OAL payload, from
// node from to node to. The payload's entries stay on the wire until the
// message's last delivery ingests them, or are lost at once when the
// network drops the message: the network decides a drop inside SendParts,
// so its drop count tells the two apart.
func (k *Kernel) sendPayload(from, to int, parts []network.Part, v protoMsg) {
	dropped := k.Net.Stats().Dropped
	k.Net.SendParts(network.NodeID(from), network.NodeID(to), parts, k.newMsg(v))
	if k.Net.Stats().Dropped > dropped {
		k.oalLost += int64(v.pl.entries)
	} else {
		k.oalWire += int64(v.pl.entries)
	}
}

// FlushAllOAL is called at end-of-run to drain any remaining records.
func (k *Kernel) FlushAllOAL() {
	for _, n := range k.nodes {
		n.flushOAL(nil)
	}
}

// CheckOALConservation accounts for every OAL entry the threads logged
// (KernelStats.CorrelationLogs). Each is in an interval still open,
// buffered on its node, ingested by the master, on the wire, in a
// sequenced flush that no delivery has yet admitted, or lost: dropped by
// the network or abandoned by the failure layer. It returns an error
// naming the counts when they do not add up, or when the entries buffered
// at interval close (KernelStats.OALEntries) differ from those logged in
// closed intervals. In distributed-TCM mode the master ingests
// deduplicated summaries rather than entries, so only the second check
// applies there.
func (k *Kernel) CheckOALConservation() error {
	var open, buffered, unadmitted int64
	for _, t := range k.threads {
		if t.rec != nil {
			open += int64(len(t.rec.Entries))
		}
	}
	for _, n := range k.nodes {
		buffered += int64(n.oalBufEntries)
		for seq, p := range n.inflight {
			if !k.fd.admitted(n.id, seq) {
				unadmitted += int64(p.entries)
			}
		}
	}
	logged := k.stats.CorrelationLogs
	if closed := logged - open; closed != k.stats.OALEntries {
		return fmt.Errorf("gos: %d OAL entries logged in closed intervals, but %d buffered at interval close",
			closed, k.stats.OALEntries)
	}
	if k.Cfg.DistributedTCM {
		return nil
	}
	ingested := k.master.ingestedEntries
	if got := open + buffered + ingested + k.oalWire + unadmitted + k.oalLost; got != logged {
		return fmt.Errorf("gos: %d OAL entries logged, %d accounted for: %d open, %d buffered, %d ingested, %d on the wire, %d in unadmitted flushes, %d lost",
			logged, got, open, buffered, ingested, k.oalWire, unadmitted, k.oalLost)
	}
	return nil
}
