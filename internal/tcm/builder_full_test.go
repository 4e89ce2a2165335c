package tcm

import (
	"slices"

	"jessica2/internal/oal"
)

// FullBuilder is the reference correlation-computing daemon Builder's
// property, fuzz and identity tests compare against: it ingests OAL records
// into per-object thread sets and rebuilds the whole N×N map from scratch on
// every Build or Peek, the literal O(M·N²) pass of the paper.
type FullBuilder struct {
	n    int
	objs map[int64]*objEntry
	cost BuildCost
}

type objEntry struct {
	bytes   float64
	threads map[int]struct{}
}

// NewFullBuilder returns a full-rebuild daemon for n threads.
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
// logged weight; the largest weight logged for an object wins. A thread id
// outside [0, n) is dropped and counted in DroppedEntries.
func (b *FullBuilder) AddAccess(t int, key int64, bytes float64) {
	if t < 0 || t >= b.n {
		b.cost.DroppedEntries++
		return
	}
	b.entry(key, bytes).threads[t] = struct{}{}
}

// entry returns the keyed object's entry, created if new, with its weight
// raised to bytes.
func (b *FullBuilder) entry(key int64, bytes float64) *objEntry {
	oe := b.objs[key]
	if oe == nil {
		oe = &objEntry{threads: make(map[int]struct{})}
		b.objs[key] = oe
	}
	if bytes > oe.bytes {
		oe.bytes = bytes
	}
	return oe
}

// Build constructs the TCM by accruing, for every object, its weight into
// every pair of threads that accessed it in common, charging the cost
// ledger for the accrual pass.
func (b *FullBuilder) Build() (*Map, BuildCost) {
	m := b.buildMap(true)
	return m, b.cost
}

// Peek constructs the same map Build would, leaving the cost ledger
// untouched.
func (b *FullBuilder) Peek() *Map { return b.buildMap(false) }

// buildMap is the accrual pass behind Build and Peek: objects in key
// order, each one's thread pairs in ascending order.
func (b *FullBuilder) buildMap(charge bool) *Map {
	m := NewMap(b.n)
	if charge {
		b.cost.Objects = len(b.objs)
	}
	for _, k := range b.keys() {
		ts := b.objs[k].sortedThreads()
		if len(ts) < 2 {
			continue
		}
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				m.Add(int(ts[i]), int(ts[j]), b.objs[k].bytes)
			}
		}
		if charge {
			b.cost.PairAdds += int64(len(ts)) * int64(len(ts)-1) / 2
		}
	}
	return m
}

// keys returns the object keys in ascending order.
func (b *FullBuilder) keys() []int64 {
	keys := make([]int64, 0, len(b.objs))
	for k := range b.objs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sortedThreads returns the object's accessor ids in ascending order.
func (oe *objEntry) sortedThreads() []int32 {
	ts := make([]int32, 0, len(oe.threads))
	for t := range oe.threads {
		ts = append(ts, int32(t))
	}
	slices.Sort(ts)
	return ts
}

// Reset clears ingested state for the next profiling window.
func (b *FullBuilder) Reset() {
	clear(b.objs)
	b.cost = BuildCost{}
}

// Summarize exports the builder's per-object state as a mergeable summary,
// sorted by key.
func (b *FullBuilder) Summarize() *Summary {
	s := &Summary{Objs: make([]ObjSummary, 0, len(b.objs))}
	for _, k := range b.keys() {
		oe := b.objs[k]
		s.Objs = append(s.Objs, ObjSummary{Key: k, Bytes: oe.bytes, Threads: oe.sortedThreads()})
	}
	return s
}

// IngestSummary merges a summary into the builder: thread sets union and
// the larger weight wins, as in AddAccess; out-of-range thread ids are
// dropped and counted.
func (b *FullBuilder) IngestSummary(s *Summary) {
	for _, o := range s.Objs {
		oe := b.entry(o.Key, o.Bytes)
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
