// Package oal defines object access lists: the per-thread, per-interval
// records of shared-object accesses that the access profiler emits and the
// central correlation daemon consumes. A record holds the thread id and one
// entry per distinct object accessed in the interval — the HLRC
// at-most-once property guarantees a single log per object per interval.
// The interval context the paper packs into each record's header (node,
// interval number, start and end bytecode PCs) is charged on the wire but
// not kept, since no consumer reads it.
package oal

import "jessica2/internal/heap"

// Entry is one logged access: the object id and the logged sample size.
// Bytes is the scaled estimator of the object's communication weight:
// amortized sample size × sampling gap, so that sampled maps estimate the
// full-population correlation volume.
type Entry struct {
	Obj   heap.ObjectID
	Bytes int64
}

// Record is the jumbo-message payload for one closed interval of one thread.
type Record struct {
	Thread  int // global thread id
	Entries []Entry
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

// recordHeaderBytes prices the paper's packed record header on the wire:
// thread id, node, interval number and the start and end PCs. Only the
// thread id is kept in a Record; the rest is charged, not stored.
const recordHeaderBytes = 24

// WireBytes returns the encoded size of the record for network accounting.
func (r *Record) WireBytes() int {
	return recordHeaderBytes + entryWireBytes*len(r.Entries)
}
