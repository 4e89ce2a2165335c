// Package oal defines object access lists: the per-thread, per-interval
// records of shared-object accesses that the access profiler emits and the
// central correlation daemon consumes. Records carry the interval context
// (delimiting bytecode PCs in the paper; logical interval ids here) and one
// entry per distinct object accessed in the interval — the HLRC at-most-once
// property guarantees a single log per object per interval.
package oal

import "jessica2/internal/heap"

// Entry is one logged access: the object id and the logged sample size.
// Bytes is the scaled estimator of the object's communication weight:
// amortized sample size × sampling gap, so that sampled maps estimate the
// full-population correlation volume.
type Entry struct {
	Obj   heap.ObjectID
	Bytes int64
	// Write records whether the interval included a write to the object.
	Write bool
}

// Record is the jumbo-message payload for one closed interval of one thread.
type Record struct {
	Thread   int   // global thread id
	Node     int   // node the interval executed on
	Interval int64 // per-thread interval sequence number
	// StartPC/EndPC delimit the interval context (the paper packs the
	// start and end bytecode PCs; our simulated threads use logical
	// program counters).
	StartPC, EndPC int64
	Entries        []Entry
}

// Reset clears the record for reuse, retaining the Entries backing array so
// that pooled records stop reallocating entry buffers every interval.
func (r *Record) Reset() {
	entries := r.Entries[:0]
	*r = Record{Entries: entries}
}

// entryWireBytes is the encoded size of one entry: 4-byte object id
// + 4-byte size (matching the paper's "accessed object id and size").
const entryWireBytes = 8

// recordHeaderBytes covers thread id, node, interval number and the two PCs.
const recordHeaderBytes = 24

// WireBytes returns the encoded size of the record for network accounting.
func (r *Record) WireBytes() int {
	return recordHeaderBytes + entryWireBytes*len(r.Entries)
}
