package tcm

// The paper's §VI names "distributed algorithms for deducing correlation
// maps in a more scalable way" as future work: the central daemon's
// O(M·N) OAL reorganization is a bottleneck for large M. This file
// defines that extension's wire format: each worker node reorganizes its
// *own* threads' OALs into per-object summaries locally, and the master
// merges summaries — which both parallelizes the reorganization and
// usually shrinks the wire volume (an object accessed in k intervals
// collapses into one summary entry). The Summarize/IngestSummary halves
// live with each builder implementation (builder_inc.go, builder_full.go).
//
// Correctness requires merging per-object *thread sets*, not built maps:
// if thread 0's access to an object is known only to node A and thread
// 1's only to node B, the pair's correlation appears only after the union.

// ObjSummary is one object's aggregated access record.
type ObjSummary struct {
	Key   int64
	Bytes float64
	// Threads holds the accessing thread ids, sorted ascending.
	Threads []int32
}

// Summary is a node's per-object reduction of its ingested OALs.
type Summary struct {
	Objs []ObjSummary
}

// objSummaryHeaderBytes: key (8) + bytes (4, quantized) + count (2).
const objSummaryHeaderBytes = 14

// threadIDWireBytes: 2 bytes per thread id.
const threadIDWireBytes = 2

// WireBytes is the encoded size for network accounting.
func (s *Summary) WireBytes() int {
	n := 8 // record count header
	for _, o := range s.Objs {
		n += objSummaryHeaderBytes + threadIDWireBytes*len(o.Threads)
	}
	return n
}
