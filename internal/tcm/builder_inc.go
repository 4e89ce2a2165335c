package tcm

import (
	"math"
	"math/bits"
	"slices"

	"jessica2/internal/oal"
)

// Builder is the online, differential correlation daemon. Where the paper's
// daemon re-sorts all M object keys and re-accrues every pairwise cell on
// every build, Builder maintains the N×N map continuously:
//
//   - each object's thread set is a dense []uint64 bitset (N is fixed at
//     construction), so the repeat-access hot path is one bit test and
//     membership iteration is word-wise, with the ids emerging already
//     sorted — no per-object sort, ever;
//   - entries live by value in one slice and their bitsets in one flat
//     word array, so a new object costs no allocation of its own and
//     Reset keeps both arrays for the next window;
//   - when thread t first touches an object, the (t, existing) pair deltas
//     accrue immediately into a persistently-maintained N×N accumulator;
//   - when a re-log upgrades an object's weight (bytes > entry weight), the
//     difference re-accrues over the existing pair set;
//   - Build/Peek render the accumulator in O(N²) independent of M, and
//     PeekInto re-syncs a reused scratch map in O(dirty cells) — the epoch
//     snapshot path of closed-loop sessions;
//   - Reset clears the accumulator in one pass.
//
// Cells accumulate in scaled fixed-point int64 (fixedShift) and convert to
// float64 at read time, so the result is independent of accrual order —
// float addition is not associative, but integer addition is. For the
// integral byte weights the simulator logs (OAL entries carry int64 byte
// counts) the conversion is exact up to 2^(63-fixedShift) ≈ 2^51 bytes per
// add and 2^(53) scaled units ≈ 2^41 bytes ≈ 2 TB of correlated volume per
// thread pair, far beyond any simulated run — within that envelope the
// incremental maps are bit-identical to a full rebuild (asserted
// by the property and fuzz equivalence tests, and on real workloads by
// TestMasterMatchesFullRebuild in the experiments package). Fractional
// weights are quantized to 2^-fixedShift bytes; additions saturate at
// MaxInt64 instead of wrapping.
type Builder struct {
	n     int
	words int // bitset words per object: ceil(n/64)
	// objs maps each object key to its index in ents; entry i's thread
	// bitset is bits[i*words:(i+1)*words]. Appending an entry may move
	// both arrays, so no *incEntry is held across a call that adds one.
	objs map[int64]int
	ents []incEntry
	bits []uint64
	cost BuildCost

	// acc is the persistently-maintained N×N accumulator (both symmetric
	// mirrors, scaled fixed-point). livePairs tracks Σ_objects C(k,2) so a
	// charged Build reports the same cumulative simulated O(M·N²) charge
	// the paper's accrual pass realizes, in O(1).
	acc       []int64
	livePairs int64

	// pending holds the keys whose thread set crossed two members since
	// the last consuming VisitNewlyShared — the O(new) feed behind the
	// session's hot-object epoch snapshots.
	pending []int64

	// Dirty-cell tracking for O(dirty) PeekInto: peekDst is the scratch
	// map currently mirroring acc except at the canonical (upper-triangle)
	// cell indexes listed in dirty. allDirty falls back to a full render
	// when the list outgrows its usefulness.
	peekDst   *Map
	dirty     []int
	dirtyMark []uint64
	allDirty  bool

	// keys/ts are iteration scratch.
	keys []int64
	ts   []int32
}

type incEntry struct {
	bytes float64
	fixed int64 // bytes in fixed point, the accrued pair weight
	count int   // popcount of the entry's bitset
}

const (
	// fixedShift scales the fixed-point cell units: 2^-12 bytes of
	// resolution, 2^51 bytes of exact per-add headroom.
	fixedShift = 12
	fixedOne   = 1 << fixedShift
)

// toFixed quantizes a weight to fixed point, saturating instead of
// overflowing (weights are non-negative: a fresh entry's weight is 0 and
// only larger weights replace it, so NaN and negatives never upgrade).
func toFixed(bytes float64) int64 {
	if bytes >= float64(math.MaxInt64)/fixedOne {
		return math.MaxInt64
	}
	return int64(bytes*fixedOne + 0.5)
}

// toFloat converts an accumulated cell back to float64 bytes.
func toFloat(v int64) float64 { return float64(v) / fixedOne }

// satAdd adds a non-negative delta with saturation at MaxInt64.
func satAdd(a, d int64) int64 {
	if a > math.MaxInt64-d {
		return math.MaxInt64
	}
	return a + d
}

// NewBuilder returns an incremental daemon for n threads.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("tcm: negative dimension")
	}
	return &Builder{
		n:         n,
		words:     (n + 63) / 64,
		objs:      make(map[int64]int),
		acc:       make([]int64, n*n),
		dirtyMark: make([]uint64, (n*n+63)/64),
	}
}

// N returns the thread-count dimension.
func (b *Builder) N() int { return b.n }

// IngestRecord reorganizes one record.
func (b *Builder) IngestRecord(r *oal.Record) {
	b.cost.Records++
	for _, e := range r.Entries {
		b.cost.Entries++
		b.AddAccess(r.Thread, int64(e.Obj), float64(e.Bytes))
	}
}

// AddAccess records that thread t accessed the keyed object with the given
// logged weight, maintaining the correlation map differentially: weight
// upgrades (bytes > entry weight, a re-log at a finer gap) re-accrue the
// difference over the object's existing pair set, and a first touch by t
// accrues the current weight over (t, existing). A repeat access at an
// unchanged weight — the overwhelmingly common case — is a single bit
// test. Malformed thread ids outside [0, n) are dropped (counted in
// DroppedEntries).
func (b *Builder) AddAccess(t int, key int64, bytes float64) {
	if t < 0 || t >= b.n {
		b.cost.DroppedEntries++
		return
	}
	i := b.entry(key)
	if bytes > b.ents[i].bytes {
		b.upgrade(i, bytes)
	}
	b.addThread(i, key, t)
}

// entry returns the index of the keyed object's entry, appending a zeroed
// entry (and bitset) when the key is new.
func (b *Builder) entry(key int64) int {
	if i, ok := b.objs[key]; ok {
		return i
	}
	i := len(b.ents)
	b.ents = append(b.ents, incEntry{})
	w := len(b.bits)
	b.bits = slices.Grow(b.bits, b.words)[:w+b.words]
	clear(b.bits[w:])
	b.objs[key] = i
	return i
}

// bitsOf returns entry i's thread bitset.
func (b *Builder) bitsOf(i int) []uint64 {
	return b.bits[i*b.words : (i+1)*b.words]
}

// upgrade raises entry i's weight, re-accruing the fixed-point difference
// over the existing pair set.
func (b *Builder) upgrade(i int, bytes float64) {
	oe := &b.ents[i]
	nf := toFixed(bytes)
	if d := nf - oe.fixed; d > 0 && oe.count >= 2 {
		ts := b.members(i)
		for x := 0; x < len(ts); x++ {
			for y := x + 1; y < len(ts); y++ {
				b.accrue(int(ts[x]), int(ts[y]), d)
			}
		}
	}
	oe.bytes, oe.fixed = bytes, nf
}

// members renders entry i's bitset into the shared ts scratch, ascending.
func (b *Builder) members(i int) []int32 {
	b.ts = b.appendMembers(b.ts[:0], i)
	return b.ts
}

// appendMembers appends entry i's thread ids to dst in ascending order
// (word-wise iteration; the ids emerge already sorted).
func (b *Builder) appendMembers(dst []int32, i int) []int32 {
	for wi, w := range b.bitsOf(i) {
		for w != 0 {
			dst = append(dst, int32(wi<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// addThread inserts t into entry i's bitset, accruing the current weight
// against every existing member and maintaining the pending and simulated
// pair-charge bookkeeping.
func (b *Builder) addThread(i int, key int64, t int) {
	oe, bs := &b.ents[i], b.bitsOf(i)
	w, bit := t>>6, uint64(1)<<uint(t&63)
	if bs[w]&bit != 0 {
		return // repeat access: the hot path
	}
	if oe.count > 0 && oe.fixed > 0 {
		for wi, v := range bs {
			for v != 0 {
				s := wi<<6 + bits.TrailingZeros64(v)
				v &= v - 1
				b.accrue(t, s, oe.fixed)
			}
		}
	}
	bs[w] |= bit
	b.livePairs += int64(oe.count)
	oe.count++
	if oe.count == 2 {
		b.pending = append(b.pending, key)
	}
}

// accrue adds a fixed-point delta to the (i, j) cell pair and marks the
// canonical cell dirty for the next incremental PeekInto re-sync.
func (b *Builder) accrue(i, j int, d int64) {
	if i == j {
		return
	}
	ii, jj := i*b.n+j, j*b.n+i
	b.acc[ii] = satAdd(b.acc[ii], d)
	b.acc[jj] = satAdd(b.acc[jj], d)
	if b.allDirty {
		return
	}
	c := ii
	if jj < ii {
		c = jj
	}
	w, bit := c>>6, uint64(1)<<uint(c&63)
	if b.dirtyMark[w]&bit != 0 {
		return
	}
	b.dirtyMark[w] |= bit
	b.dirty = append(b.dirty, c)
	if len(b.dirty)*4 > len(b.acc) {
		// Past a quarter of the matrix, a full render beats cell-by-cell
		// re-sync; stop growing the list.
		b.allDirty = true
	}
}

// Build renders the maintained TCM and charges the cost ledger with the
// paper's full accrual pass — Objects = M and PairAdds += Σ C(k,2), the
// identical cumulative simulated charge a full rebuild realizes — in
// O(N²) host work independent of M.
func (b *Builder) Build() (*Map, BuildCost) {
	m := NewMap(b.n)
	b.render(m)
	b.cost.Objects = len(b.objs)
	b.cost.PairAdds += b.livePairs
	return m, b.cost
}

// Peek renders the same map Build would without touching the cost ledger:
// a live-snapshot read must leave the simulated analyzer's accounting
// exactly as a later charged Build would have found it.
func (b *Builder) Peek() *Map {
	m := NewMap(b.n)
	b.render(m)
	return m
}

// PeekInto is Peek with caller-owned scratch. When dst is the same scratch
// the previous PeekInto returned, only the cells dirtied since then are
// re-converted — O(dirty), the closed-loop epoch steady state — otherwise
// the whole accumulator renders into dst (recycled via Reuse; nil
// allocates). The returned map aliases dst, is valid until the next
// PeekInto, and must not be written to by the caller (a foreign write would
// desynchronize the dirty-cell mirror).
func (b *Builder) PeekInto(dst *Map) *Map {
	if dst != nil && dst == b.peekDst && dst.n == b.n && !b.allDirty {
		for _, ci := range b.dirty {
			i, j := ci/b.n, ci%b.n
			v := toFloat(b.acc[ci])
			dst.cells[ci] = v
			dst.cells[j*b.n+i] = v
		}
		b.resetDirty()
		return dst
	}
	dst = dst.Reuse(b.n)
	b.render(dst)
	b.resetDirty()
	b.peekDst = dst
	return dst
}

// render converts the whole accumulator into dst (dst dimensions must
// already match).
func (b *Builder) render(dst *Map) {
	for i, v := range b.acc {
		dst.cells[i] = toFloat(v)
	}
}

// resetDirty clears the dirty-cell tracking after a re-sync.
func (b *Builder) resetDirty() {
	clear(b.dirtyMark)
	b.dirty = b.dirty[:0]
	b.allDirty = false
}

// DecayThreads scales every accumulated correlation involving the given
// threads by factor (clamped into [0, 1]) — the graceful-degradation hook
// the master's failure detector pulls when a node is declared dead: instead
// of freezing stale correlations at full weight, the lost threads'
// evidence is discounted so live threads dominate the next placement
// decision. The decay is deterministic (`int64(float64(v)*factor + 0.5)`
// per cell, applied to both symmetric mirrors); a pair whose BOTH threads
// are in the set decays twice (factor²), the intended stronger quarantine
// of entirely-dead evidence. Per-object thread sets and weights are left
// intact — future re-logs accrue at full weight, so a recovered node's
// threads rebuild their correlations naturally. Out-of-range ids are
// ignored. The scratch mirror is invalidated, so the next PeekInto is a
// full O(N²) render.
func (b *Builder) DecayThreads(threads []int, factor float64) {
	if factor < 0 || math.IsNaN(factor) {
		factor = 0
	}
	if factor >= 1 {
		return
	}
	decayed := false
	for _, t := range threads {
		if t < 0 || t >= b.n {
			continue
		}
		decayed = true
		for j := 0; j < b.n; j++ {
			ij, ji := t*b.n+j, j*b.n+t
			b.acc[ij] = int64(float64(b.acc[ij])*factor + 0.5)
			b.acc[ji] = int64(float64(b.acc[ji])*factor + 0.5)
		}
	}
	if decayed {
		b.allDirty = true
	}
}

// SeedMap pre-loads the accumulator with a prior run's correlation map —
// the profile-guided warm start: a policy planning against the seeded map
// sees the stored correlation structure from epoch 0 instead of relearning
// it. The map's cells quantize back into the fixed-point units they were
// accumulated in (exact for maps that originated from an accumulator), and
// accrue on top of whatever is already present. Seeding is prior knowledge,
// not measurement: livePairs and the cost ledger are untouched, so a later
// charged Build reports only the work the simulated analyzer really did.
// Per-object thread sets are untouched too — the seeded volume is
// pair-level evidence with no object identity, exactly like post-decay
// state. The scratch mirror is invalidated, so the next PeekInto is a full
// O(N²) render. Dimension mismatches are ignored (the session layer only
// seeds fingerprint-matched profiles).
func (b *Builder) SeedMap(m *Map) {
	if m == nil || m.n != b.n {
		return
	}
	seeded := false
	for i, v := range m.cells {
		if v == 0 {
			continue
		}
		b.acc[i] = satAdd(b.acc[i], toFixed(v))
		seeded = true
	}
	if seeded {
		b.allDirty = true
	}
}

// VisitNewlyShared streams the objects whose thread set crossed two members
// since the last consuming call, in ascending key order: key, current
// weight, and the ascending accessor ids (the threads slice is iteration
// scratch, valid only during the callback). With consume set, entries whose
// visit returns true are retired from the pending list — O(new) work per
// epoch; entries declined with false stay pending for the next call.
// Without consume the list is left untouched (an ad-hoc snapshot peek).
func (b *Builder) VisitNewlyShared(consume bool, visit func(key int64, bytes float64, threads []int32) bool) {
	if len(b.pending) == 0 {
		return
	}
	slices.Sort(b.pending)
	if !consume {
		for _, k := range b.pending {
			i := b.objs[k]
			visit(k, b.ents[i].bytes, b.members(i))
		}
		return
	}
	kept := b.pending[:0]
	for _, k := range b.pending {
		i := b.objs[k]
		if !visit(k, b.ents[i].bytes, b.members(i)) {
			kept = append(kept, k)
		}
	}
	b.pending = kept
}

// Summarize exports the builder's per-object state as a mergeable summary
// (sorted by key for determinism) — the worker-side half of the distributed
// reduction. The bitsets iterate in ascending id order, so no per-object
// sort is needed. Every thread list shares one backing array, each capped
// by a full slice expression so that appending to one cannot overwrite the
// next: a summary costs three allocations whatever its size.
func (b *Builder) Summarize() *Summary {
	keys := b.keys[:0]
	members := 0
	for k, i := range b.objs {
		keys = append(keys, k)
		members += b.ents[i].count
	}
	b.keys = keys
	slices.Sort(keys)
	s := &Summary{Objs: make([]ObjSummary, 0, len(keys))}
	threads := make([]int32, 0, members)
	for _, k := range keys {
		i := b.objs[k]
		from := len(threads)
		threads = b.appendMembers(threads, i)
		s.Objs = append(s.Objs, ObjSummary{
			Key:     k,
			Bytes:   b.ents[i].bytes,
			Threads: threads[from:len(threads):len(threads)],
		})
	}
	return s
}

// SharedKeys returns the keys of the objects that two or more threads have
// accessed, in ascending order. The slice is scratch shared with Summarize:
// it stays valid until the next call to either.
func (b *Builder) SharedKeys() []int64 {
	keys := b.keys[:0]
	for k, i := range b.objs {
		if b.ents[i].count >= 2 {
			keys = append(keys, k)
		}
	}
	b.keys = keys
	slices.Sort(keys)
	return keys
}

// IngestSummary merges a worker summary into the builder (the master-side
// half): the larger byte estimate wins — its delta re-accrued over the
// existing pair set — and thread sets union with malformed out-of-range ids
// dropped, matching AddAccess's accounting.
func (b *Builder) IngestSummary(s *Summary) {
	for _, o := range s.Objs {
		i := b.entry(o.Key)
		if o.Bytes > b.ents[i].bytes {
			b.upgrade(i, o.Bytes)
		}
		for _, t := range o.Threads {
			if t < 0 || int(t) >= b.n {
				b.cost.DroppedEntries++
				continue
			}
			b.addThread(i, o.Key, int(t))
		}
		b.cost.Entries += len(o.Threads)
	}
}

// Reset clears ingested state for the next profiling window in one pass:
// accumulator, pending list and simulated-charge counters zero, and the
// entry and bitset arrays truncate for reuse. An array whose capacity
// exceeds freePoolCap of the window just cleared is reallocated at that
// cap, so a storm window cannot pin its peak memory.
func (b *Builder) Reset() {
	max := freePoolCap(len(b.ents))
	clear(b.objs)
	b.ents = b.ents[:0]
	if cap(b.ents) > max {
		b.ents = make([]incEntry, 0, max)
	}
	b.bits = b.bits[:0]
	if cap(b.bits) > max*b.words {
		b.bits = make([]uint64, 0, max*b.words)
	}
	clear(b.acc)
	b.livePairs = 0
	b.pending = b.pending[:0]
	b.cost = BuildCost{}
	b.peekDst = nil // scratch maps no longer mirror the accumulator
	clear(b.dirtyMark)
	b.dirty = b.dirty[:0]
	b.allDirty = false
}
