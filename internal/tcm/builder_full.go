package tcm

import (
	"sort"

	"jessica2/internal/oal"
)

// FullBuilder is the legacy correlation-computing daemon: it ingests OAL
// records into per-object thread-set maps and rebuilds the whole N×N map
// from scratch on every Build/Peek — the literal O(M·N²) pass of the paper.
// It is kept only as the oracle Builder's property, fuzz and workload
// identity tests compare against.
type FullBuilder struct {
	n    int
	objs map[int64]*objEntry
	cost BuildCost

	// free recycles objEntry structs (and their thread-set maps) across
	// profiling windows; keys and ts are iteration scratch reused across
	// Build calls. Together they make the per-window daemon work
	// allocation-free at steady state. Reset caps the pool (freePoolCap)
	// so a storm window cannot permanently pin its peak entry population.
	free []*objEntry
	keys []int64
	ts   []int
}

type objEntry struct {
	bytes   float64
	threads map[int]struct{}
}

// NewFullBuilder returns a legacy full-rebuild daemon for n threads.
func NewFullBuilder(n int) *FullBuilder {
	return &FullBuilder{n: n, objs: make(map[int64]*objEntry)}
}

// N returns the thread-count dimension.
func (b *FullBuilder) N() int { return b.n }

// IngestRecord reorganizes one record.
func (b *FullBuilder) IngestRecord(r *oal.Record) {
	b.cost.Records++
	for _, e := range r.Entries {
		b.cost.Entries++
		b.AddAccess(r.Thread, int64(e.Obj), float64(e.Bytes))
	}
}

// AddAccess records that thread t accessed the keyed object with the given
// logged weight. The weight of the first log wins (all threads log the same
// amortized size for the same object at the same gap); larger weights
// replace smaller ones so that re-logging at a finer gap upgrades the entry.
// Records arrive over the network, so a malformed thread id outside [0, n)
// must not crash the daemon: such entries are dropped (counted in
// DroppedEntries).
func (b *FullBuilder) AddAccess(t int, key int64, bytes float64) {
	if t < 0 || t >= b.n {
		b.cost.DroppedEntries++
		return
	}
	oe := b.objs[key]
	if oe == nil {
		if n := len(b.free); n > 0 {
			oe = b.free[n-1]
			b.free = b.free[:n-1]
		} else {
			oe = &objEntry{threads: make(map[int]struct{}, 2)}
		}
		b.objs[key] = oe
	}
	if bytes > oe.bytes {
		oe.bytes = bytes
	}
	oe.threads[t] = struct{}{}
}

// Build constructs the TCM by accruing, for every object, its weight into
// every pair of threads that accessed it in common, charging the cost
// ledger for the accrual pass.
func (b *FullBuilder) Build() (*Map, BuildCost) {
	m := b.buildMap(nil, true)
	return m, b.cost
}

// Peek constructs the same map Build would, but leaves the cost ledger
// untouched: no Objects/PairAdds accrual, so a charged Build that follows
// observes exactly the state it would have without the peek. Live snapshots
// use it to expose the incremental TCM without perturbing the simulated
// analyzer's CPU accounting.
func (b *FullBuilder) Peek() *Map { return b.buildMap(nil, false) }

// PeekInto is Peek with caller-owned scratch: the accrual writes into dst
// (recycled via Reuse; nil allocates). Closed-loop sessions peek at every
// epoch boundary, and rebuilding the N×N map each epoch was the allocation
// hot spot of closed-loop runs — reusing one per-session map removes it.
// The returned map aliases dst and is valid until the next PeekInto.
func (b *FullBuilder) PeekInto(dst *Map) *Map { return b.buildMap(dst, false) }

// buildMap is the shared accrual pass behind Build and Peek.
func (b *FullBuilder) buildMap(dst *Map, charge bool) *Map {
	m := dst.Reuse(b.n)
	if charge {
		b.cost.Objects = len(b.objs)
	}
	// Deterministic iteration: sort object keys.
	keys := b.keys[:0]
	for k := range b.objs {
		keys = append(keys, k)
	}
	b.keys = keys
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		oe := b.objs[k]
		if len(oe.threads) < 2 {
			continue
		}
		ts := b.ts[:0]
		for t := range oe.threads {
			ts = append(ts, t)
		}
		b.ts = ts
		sort.Ints(ts)
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				m.Add(ts[i], ts[j], oe.bytes)
			}
		}
		if charge {
			b.cost.PairAdds += int64(len(ts)) * int64(len(ts)-1) / 2
		}
	}
	return m
}

// Reset clears ingested state for the next profiling window, retaining the
// entry structs and thread-set maps for reuse — up to freePoolCap of this
// window's population, so the pool tracks the current working set instead
// of the all-time peak.
func (b *FullBuilder) Reset() {
	recycled := len(b.objs)
	for _, oe := range b.objs {
		oe.bytes = 0
		clear(oe.threads)
		b.free = append(b.free, oe)
	}
	clear(b.objs)
	if max := freePoolCap(recycled); len(b.free) > max {
		tail := b.free[max:]
		for i := range tail {
			tail[i] = nil // release the dropped entries to the GC
		}
		b.free = b.free[:max]
	}
	b.cost = BuildCost{}
}

// Summarize exports the builder's per-object state as a mergeable summary
// (sorted by key for determinism) and is the worker-side half of the
// distributed reduction.
func (b *FullBuilder) Summarize() *Summary {
	s := &Summary{Objs: make([]ObjSummary, 0, len(b.objs))}
	keys := make([]int64, 0, len(b.objs))
	for k := range b.objs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		oe := b.objs[k]
		ts := make([]int32, 0, len(oe.threads))
		for t := range oe.threads {
			ts = append(ts, int32(t))
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		s.Objs = append(s.Objs, ObjSummary{Key: k, Bytes: oe.bytes, Threads: ts})
	}
	return s
}

// IngestSummary merges a worker summary into the builder (the master-side
// half). Thread sets union; the larger byte estimate wins, matching
// AddAccess semantics — including its rejection of malformed out-of-range
// thread ids.
func (b *FullBuilder) IngestSummary(s *Summary) {
	for _, o := range s.Objs {
		oe := b.objs[o.Key]
		if oe == nil {
			if n := len(b.free); n > 0 {
				oe = b.free[n-1]
				b.free = b.free[:n-1]
			} else {
				oe = &objEntry{threads: make(map[int]struct{}, len(o.Threads))}
			}
			b.objs[o.Key] = oe
		}
		if o.Bytes > oe.bytes {
			oe.bytes = o.Bytes
		}
		for _, t := range o.Threads {
			if t < 0 || int(t) >= b.n {
				b.cost.DroppedEntries++
				continue
			}
			oe.threads[int(t)] = struct{}{}
		}
		b.cost.Entries += len(o.Threads)
	}
}
