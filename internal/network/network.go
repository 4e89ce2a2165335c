// Package network models the cluster interconnect of the distributed JVM:
// a switched full-duplex network (Fast Ethernet in the paper's testbed) with
// per-message latency, bandwidth-proportional transfer time, and per-category
// traffic accounting. OAL (profiling) traffic can piggyback on protocol
// messages, which is how the paper keeps profiling bandwidth bursty but
// cheap.
package network

import (
	"fmt"
	"sort"

	"jessica2/internal/sim"
)

// NodeID identifies a cluster node. Node 0 is conventionally the master JVM.
type NodeID int

// Category classifies traffic for the accounting the paper reports
// (Table III separates GOS message volume from OAL message volume).
type Category int

// Traffic categories.
const (
	CatControl   Category = iota // protocol control: lock grants, barrier msgs
	CatGOSData                   // object fetches, diffs, write notices
	CatOAL                       // object access list (profiling) payloads
	CatMigration                 // thread contexts and prefetched sticky sets
	numCategories
)

func (c Category) String() string {
	switch c {
	case CatControl:
		return "control"
	case CatGOSData:
		return "gos-data"
	case CatOAL:
		return "oal"
	case CatMigration:
		return "migration"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Part is one category's share of a (possibly piggybacked) message.
type Part struct {
	Cat   Category
	Bytes int
}

// Message is what a handler receives. Messages are recycled; see Handler
// for what a handler may keep.
type Message struct {
	From, To NodeID
	Parts    []Part
	Payload  any

	// partsBuf inline-stores the parts: every protocol message carries one
	// or two categories, so Send/SendParts fill this buffer instead of
	// allocating a separate Parts array (and the caller's parts slice no
	// longer escapes).
	partsBuf [2]Part

	// net is the owning network; pending counts the deliveries still
	// queued (two for a duplicated message). The message returns to the
	// network's free list after its last delivery.
	net     *Network
	pending int
}

// Final reports whether the delivery being handled is the message's last:
// no duplicate of it is still in flight. A receiver that recycles the
// payload does so only on the final delivery.
func (m *Message) Final() bool { return m.pending == 0 }

// TotalBytes sums all parts plus the fixed per-message header.
func (m *Message) TotalBytes() int {
	n := HeaderBytes
	for _, p := range m.Parts {
		n += p.Bytes
	}
	return n
}

// The interconnect's physical characteristics approximate the paper's Fast
// Ethernet testbed.
const (
	// Latency is the one-way propagation + protocol stack delay.
	Latency = 120 * sim.Microsecond
	// BandwidthBytesPerSec is the per-link throughput: 100 Mbps.
	BandwidthBytesPerSec int64 = 100_000_000 / 8
	// HeaderBytes is the fixed per-message overhead (Ethernet + IP + UDP +
	// DJVM protocol header).
	HeaderBytes = 64
)

// Handler consumes a delivered message. Handlers run in scheduler context
// and must not block; they may wake procs and schedule events. The network
// recycles the message once the handler returns, so a handler must not
// keep the *Message or its Parts: it copies the fields it needs later. The
// Payload value itself may be kept. A duplicated message is handed over
// once per delivery; Message.Final tells the last one apart.
type Handler func(*Message)

// Shaper is a time-varying link model: when installed, it replaces the
// static latency + serialization formula for every remote message. The
// scenario engine uses it to model latency/bandwidth ramps, jitter and
// degraded links. Implementations must be deterministic functions of their
// arguments and their own internal state — messages are posted in a
// deterministic order, so a seeded stream drawn per message is fine.
type Shaper interface {
	// TransferTime returns the total delivery delay for a message of
	// totalBytes (payload + header) posted at now from -> to. Negative
	// results are clamped to zero by the caller.
	TransferTime(now sim.Time, from, to NodeID, totalBytes int) sim.Time
}

// Verdict is an Interceptor's decision for one remote message.
type Verdict struct {
	// Drop loses the message: it is accounted as sent (the bytes hit the
	// wire) but never delivered. Dropping protocol traffic a blocked proc
	// waits on deadlocks the simulation, so interceptors should only drop
	// traffic with an application-level retry path (e.g. dedicated OAL
	// flushes).
	Drop bool
	// Duplicate delivers the message twice (the duplicate arrives one extra
	// base latency after the original) — the at-least-once failure mode
	// idempotent receivers must tolerate.
	Duplicate bool
	// Delay adds extra delivery latency on top of the link model (negative
	// values are ignored). Deferral — e.g. holding traffic across a
	// partition until it heals — is a large finite Delay.
	Delay sim.Time
}

// Interceptor injects per-message failures: it sees every remote message
// after the link model computed its delay and decides its fate. Like
// Shaper, implementations must be deterministic functions of their
// arguments and internal state — messages post in deterministic order, so
// a seeded per-message stream is fine. primary is the message's first
// part's category (the protocol category for piggybacked messages), which
// lets an interceptor target dedicated profiling flushes without seeing
// payloads. Local sends (from == to) bypass interception.
type Interceptor interface {
	Intercept(now sim.Time, from, to NodeID, primary Category, totalBytes int) Verdict
}

// Stats aggregates per-category traffic.
type Stats struct {
	Bytes    [numCategories]int64
	Messages [numCategories]int64
	// HeaderBytesTotal counts fixed header overhead across all messages.
	HeaderBytesTotal int64
	// Dropped and Duplicated count interceptor verdicts (always zero when
	// no interceptor is installed). They are deliberately excluded from
	// String(): failure-free reports must render byte-identically to
	// builds that predate fault injection.
	Dropped    int64
	Duplicated int64
}

// CatBytes returns the byte count for one category.
func (s Stats) CatBytes(c Category) int64 { return s.Bytes[c] }

// GOSBytes is the protocol traffic: GOS data and control payloads plus the
// headers of every message.
func (s Stats) GOSBytes() int64 {
	return s.Bytes[CatGOSData] + s.Bytes[CatControl] + s.HeaderBytesTotal
}

// TotalBytes sums payload bytes over all categories plus headers.
func (s Stats) TotalBytes() int64 {
	var n int64 = s.HeaderBytesTotal
	for _, b := range s.Bytes {
		n += b
	}
	return n
}

// String renders the stats sorted by category for stable output.
func (s Stats) String() string {
	type row struct {
		cat   Category
		bytes int64
		msgs  int64
	}
	var rows []row
	for c := Category(0); c < numCategories; c++ {
		rows = append(rows, row{c, s.Bytes[c], s.Messages[c]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].cat < rows[j].cat })
	out := ""
	for _, r := range rows {
		out += fmt.Sprintf("%s: %d bytes / %d msgs\n", r.cat, r.bytes, r.msgs)
	}
	return out
}

// Network connects a fixed set of nodes.
type Network struct {
	eng *sim.Engine
	// handlers is indexed by the dense node id; Bind grows it.
	handlers []Handler
	stats    Stats
	inFlight int
	shaper   Shaper
	icept    Interceptor

	// free holds delivered messages for reuse. The network lives on one
	// engine's goroutine, so a plain slice is enough.
	free []*Message
}

// New creates a network over the engine.
func New(eng *sim.Engine) *Network { return &Network{eng: eng} }

// Bind installs the message handler for a node. Rebinding replaces the
// previous handler.
func (n *Network) Bind(id NodeID, h Handler) {
	for len(n.handlers) <= int(id) {
		n.handlers = append(n.handlers, nil)
	}
	n.handlers[id] = h
}

// Stats returns a snapshot of global traffic stats.
func (n *Network) Stats() Stats { return n.stats }

// SetShaper installs (or, with nil, removes) a time-varying link model.
func (n *Network) SetShaper(s Shaper) { n.shaper = s }

// SetInterceptor installs (or, with nil, removes) the per-message failure
// injector. It composes with an installed Shaper: the shaper computes the
// delay, the interceptor then decides the message's fate.
func (n *Network) SetInterceptor(i Interceptor) { n.icept = i }

// TransferTime computes latency + serialization delay for a payload size.
func (n *Network) TransferTime(totalBytes int) sim.Time {
	ser := sim.Time(int64(totalBytes) * int64(sim.Second) / BandwidthBytesPerSec)
	return Latency + ser
}

// Send transmits a single-category message. See SendParts.
func (n *Network) Send(from, to NodeID, cat Category, bytes int, payload any) {
	msg := n.newMessage(from, to, payload)
	msg.partsBuf[0] = Part{Cat: cat, Bytes: bytes}
	msg.Parts = msg.partsBuf[:1]
	n.post(msg)
}

// SendParts transmits a message whose payload is split across categories
// (piggybacking): transfer time is charged on the total size while the
// accounting splits per category. Local sends (from == to) are delivered
// with zero delay and no traffic accounting.
func (n *Network) SendParts(from, to NodeID, parts []Part, payload any) {
	msg := n.newMessage(from, to, payload)
	msg.Parts = append(msg.partsBuf[:0], parts...)
	n.post(msg)
}

// newMessage takes a message from the free list, or allocates one.
func (n *Network) newMessage(from, to NodeID, payload any) *Message {
	var msg *Message
	if k := len(n.free); k > 0 {
		msg = n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
	} else {
		msg = &Message{net: n}
	}
	msg.From, msg.To, msg.Payload = from, to, payload
	return msg
}

// release returns a message whose deliveries are over to the free list,
// dropping its payload reference.
func (n *Network) release(msg *Message) {
	msg.Payload = nil
	n.free = append(n.free, msg)
}

// delivery is a message's delivery event: a queued message fires as
// itself, once per pending delivery.
type delivery Message

func (d *delivery) Fire() {
	msg := (*Message)(d)
	n := msg.net
	if msg.From != msg.To {
		n.inFlight--
	}
	msg.pending--
	n.deliver(msg)
	if msg.pending == 0 {
		n.release(msg)
	}
}

// post schedules the message's delivery.
func (n *Network) post(msg *Message) {
	from, to, parts := msg.From, msg.To, msg.Parts
	msg.pending = 1
	if from == to {
		n.eng.AfterEvent(0, (*delivery)(msg))
		return
	}
	total := msg.TotalBytes()
	n.account(parts)
	delay := n.TransferTime(total)
	if n.shaper != nil {
		// Clamp shaper pathologies: extreme jitter or degenerate bandwidth
		// factors must not yield negative (or NaN — which fails every
		// comparison, so the clamp catches it too) delivery delays.
		if d := n.shaper.TransferTime(n.eng.Now(), from, to, total); d >= 0 {
			delay = d
		} else {
			delay = 0
		}
	}
	if n.icept != nil {
		primary := CatControl
		if len(parts) > 0 {
			primary = parts[0].Cat
		}
		v := n.icept.Intercept(n.eng.Now(), from, to, primary, total)
		if v.Drop {
			n.stats.Dropped++
			n.release(msg) // accounted on the wire, never delivered
			return
		}
		if v.Delay > 0 {
			delay += v.Delay
		}
		if v.Duplicate {
			n.stats.Duplicated++
			n.inFlight++
			msg.pending = 2
			n.eng.AfterEvent(delay+Latency, (*delivery)(msg))
		}
	}
	n.inFlight++
	n.eng.AfterEvent(delay, (*delivery)(msg))
}

func (n *Network) account(parts []Part) {
	n.stats.HeaderBytesTotal += HeaderBytes
	for _, p := range parts {
		n.stats.Bytes[p.Cat] += int64(p.Bytes)
		n.stats.Messages[p.Cat]++
	}
}

func (n *Network) deliver(msg *Message) {
	var h Handler
	if uint(msg.To) < uint(len(n.handlers)) {
		h = n.handlers[msg.To]
	}
	if h == nil {
		panic(fmt.Sprintf("network: no handler bound for node %d", msg.To))
	}
	h(msg)
}
