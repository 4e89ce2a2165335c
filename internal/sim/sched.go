package sim

import (
	"fmt"
	"math/bits"
)

// schedQueue is the engine's event scheduler: a two-level hierarchical
// timing wheel (Varghese & Lauck, SOSP 1987) over one growable pool of
// event nodes. The simulator's event population is sharply bimodal —
// dense bursts of wakes and short sleeps within microseconds of the
// clock, plus a tail of re-arm timers milliseconds out — so either level
// files an event in O(1), and only the cursor's bucket and the rare timers
// beyond both levels are kept in order.
//
// Time is cut into laps of len(ring) buckets of 1<<bits ns each (with the
// defaults, 256 × 4096 ns, about 1 ms). The levels are:
//
//   - ring: the cursor's lap, one bucket per slot. Each bucket is a FIFO
//     list of pool nodes with the earliest time on it, so nextAt never
//     walks a list, and a bit in the occupancy bitmap.
//   - cur: the cursor's bucket itself, ordered by (at, seq) in one reused
//     4-ary heap. A bucket becomes cur when the cursor reaches it; a lone
//     event is popped from its list without touching the heap.
//   - far: farWindows windows, one lap each, hold the next 64 laps (about
//     67 ms); lap L sits in window L % 64. When the ring runs dry, the
//     earliest window's nodes are relinked into ring buckets, O(1) each.
//   - overflow: a 4-ary heap for timers beyond the windows (scenario
//     events and long backoffs). Its timers move into windows or the ring
//     as the cursor's lap advances.
//
// Nodes come from pool, which doubles when full and reuses released
// nodes, so an engine allocates O(log n) times for n queued events and
// nothing in steady state.
//
// Ordering is exactly the 4-ary heap's: (at, seq) with FIFO tie-break (the
// property tests in sched_test.go assert pop-order equivalence on random
// streams).
//
// The engine always runs the default geometry below; init accepts others
// only for the geometry-sweep test and benchmark in sched_geom_test.go,
// which measure the trade-off across dense/uniform/far loads: wider
// buckets put more events in each ordered bucket; a longer ring moves
// fewer timers between levels.
//
// Invariants, between calls:
//   - cur holds exactly the events of the cursor's bucket, and every ring
//     list event lies in a later bucket of the cursor's lap; base, the
//     start of the cursor's bucket, never exceeds the engine clock: pop
//     leaves it at the popped event's bucket, peeking never mutates, and
//     the engine never schedules in the past;
//   - every window event's lap is in (lap, lap+farWindows];
//   - every overflow event's lap is beyond lap+farWindows;
//   - so cur precedes the ring lists, which precede the windows, which
//     precede the overflow;
//   - every pool node off a list is on the free list with its event zeroed.
const (
	// defaultBucketBits sets the default bucket width: 1<<12 = 4096 ns
	// spans the engine's dense event cluster (per-access CPU charges and
	// protocol latencies are tens of ns to a few µs) without smearing one
	// busy instant across many buckets.
	defaultBucketBits = 12
	// defaultRingBuckets is the default ring size; with 4 µs buckets a
	// lap is about 1 ms.
	defaultRingBuckets = 256
	// farWindows is the number of one-lap windows past the cursor's lap.
	farWindows = 64
)

// node is a pool slot: a queued event and the next node on its list.
type node struct {
	event
	next int32 // pool index of the next node; 0 ends the list
}

// bucket is a FIFO list of pool nodes.
type bucket struct {
	head, tail int32 // 0 when empty
	min        Time  // earliest at on the list, valid while head != 0
}

type schedQueue struct {
	// Geometry, fixed at first use: bucket width 1<<bits ns, lap width
	// 1<<shift ns, len(ring) = mask+1 buckets (power of two, multiple of
	// 64 so the occupancy bitmap is whole words). A zero-value queue
	// lazily adopts the defaults.
	bits  uint
	shift uint
	mask  int

	pool []node // pool[0] is the sentinel index 0 that ends every list
	free int32  // released nodes, linked through next

	ring  []bucket
	occ   []uint64 // occupancy bitmap: bit i set iff ring[i] has nodes
	ringN int      // events on ring lists
	n     int      // total events

	lap    Time // lap of the cursor: at>>shift of every cur and ring event
	cursor int  // bucket whose events are in cur
	cur    eventPQ

	far    [farWindows]bucket
	farOcc uint64 // bit w set iff far[w] has nodes

	overflow eventPQ
}

// init materializes the ring with 1<<bucketBits ns buckets × buckets.
func (q *schedQueue) init(bucketBits, buckets int) {
	if bucketBits < 1 || bucketBits > 40 {
		panic(fmt.Sprintf("sim: bucket bits %d out of range [1, 40]", bucketBits))
	}
	if buckets < 64 || buckets&(buckets-1) != 0 {
		panic(fmt.Sprintf("sim: ring buckets %d must be a power of two >= 64", buckets))
	}
	// The lap width buckets<<bits must fit in Time: laps are compared by
	// shifting times, and a wrapped width would file events in the wrong
	// lap.
	if bucketBits+bits.Len(uint(buckets-1)) > 62 {
		panic(fmt.Sprintf("sim: geometry %d-bit buckets × %d ring overflows the coverage span", bucketBits, buckets))
	}
	q.bits = uint(bucketBits)
	q.shift = q.bits + uint(bits.Len(uint(buckets-1)))
	q.mask = buckets - 1
	q.ring = make([]bucket, buckets)
	q.occ = make([]uint64, buckets/64)
}

func (q *schedQueue) empty() bool { return q.n == 0 }

func (q *schedQueue) push(e event) {
	if q.ring == nil {
		q.init(defaultBucketBits, defaultRingBuckets)
	}
	q.n++
	switch d := e.at>>q.shift - q.lap; {
	case d == 0 && int(e.at>>q.bits)&q.mask == q.cursor:
		q.cur.push(e)
	case d > farWindows:
		q.overflow.push(e)
	default:
		q.file(q.alloc(e))
	}
}

// alloc stores e in a free pool node, doubling the pool when none is free.
func (q *schedQueue) alloc(e event) int32 {
	i := q.free
	if i != 0 {
		q.free = q.pool[i].next
	} else {
		if len(q.pool) == cap(q.pool) {
			grown := make([]node, max(len(q.pool), 1), max(2*len(q.pool), 64))
			copy(grown, q.pool)
			q.pool = grown
		}
		i = int32(len(q.pool))
		q.pool = q.pool[:i+1]
	}
	q.pool[i] = node{event: e}
	return i
}

// release zeroes node i, so it pins no event target, and frees it.
func (q *schedQueue) release(i int32) {
	q.pool[i] = node{next: q.free}
	q.free = i
}

// file appends node i to its ring bucket, when it falls in the cursor's
// lap, or else to its far window.
func (q *schedQueue) file(i int32) {
	nd := &q.pool[i]
	nd.next = 0
	var b *bucket
	if lap := nd.at >> q.shift; lap == q.lap {
		r := int(nd.at>>q.bits) & q.mask
		b = &q.ring[r]
		q.occ[r>>6] |= 1 << uint(r&63)
		q.ringN++
	} else {
		w := int(lap) & (farWindows - 1)
		b = &q.far[w]
		q.farOcc |= 1 << uint(w)
	}
	if b.head == 0 {
		b.head, b.min = i, nd.at
	} else {
		q.pool[b.tail].next = i
		b.min = min(b.min, nd.at)
	}
	b.tail = i
}

// nextOccupied returns the first non-empty ring bucket at or after the
// cursor, whose own list is empty between calls. Callers check ringN > 0
// first.
func (q *schedQueue) nextOccupied() int {
	w := q.cursor >> 6
	b := q.occ[w] &^ (1<<uint(q.cursor&63) - 1)
	for b == 0 {
		w++
		b = q.occ[w]
	}
	return w<<6 + bits.TrailingZeros64(b)
}

// firstWindow returns the far window of the earliest non-empty lap.
// Callers check farOcc != 0 first.
func (q *schedQueue) firstWindow() int {
	from := int(q.lap+1) & (farWindows - 1)
	return (from + bits.TrailingZeros64(bits.RotateLeft64(q.farOcc, -from))) & (farWindows - 1)
}

// nextAt reports the earliest event's time without mutating the queue (the
// engine peeks on every RunUntil step, possibly while paused — moving the
// cursor here would let it slide past the paused clock and corrupt the
// filing of later pushes). Callers check empty() first.
func (q *schedQueue) nextAt() Time {
	switch {
	case len(q.cur) > 0:
		return q.cur[0].at
	case q.ringN > 0:
		return q.ring[q.nextOccupied()].min
	case q.farOcc != 0:
		return q.far[q.firstWindow()].min
	}
	return q.overflow[0].at
}

func (q *schedQueue) pop() event {
	q.n--
	if len(q.cur) > 0 {
		return q.cur.pop()
	}
	if q.ringN == 0 {
		q.nextLap()
	}
	q.cursor = q.nextOccupied()
	b := &q.ring[q.cursor]
	i := b.head
	b.head = 0
	q.occ[q.cursor>>6] &^= 1 << uint(q.cursor&63)
	if q.pool[i].next == 0 {
		// A lone event needs no ordering.
		e := q.pool[i].event
		q.release(i)
		q.ringN--
		return e
	}
	for i != 0 {
		nd := &q.pool[i]
		next := nd.next
		q.cur.push(nd.event)
		q.release(i)
		q.ringN--
		i = next
	}
	return q.cur.pop()
}

// nextLap moves the cursor to the earliest lap that holds an event once
// the cursor's lap has run dry: the first non-empty window's, whose nodes
// are relinked into ring buckets, or with every window empty the
// overflow's earliest. The overflow's timers that the new window range
// covers then leave the heap. The cursor is left at bucket 0, for the
// caller's nextOccupied to find the lap's first occupied bucket.
func (q *schedQueue) nextLap() {
	var i int32
	if q.farOcc != 0 {
		w := q.firstWindow()
		q.lap = q.far[w].min >> q.shift
		i = q.far[w].head
		q.far[w].head = 0
		q.farOcc &^= 1 << uint(w)
	} else {
		q.lap = q.overflow[0].at >> q.shift
	}
	q.cursor = 0
	for i != 0 {
		next := q.pool[i].next
		q.file(i)
		i = next
	}
	for len(q.overflow) > 0 && q.overflow[0].at>>q.shift-q.lap <= farWindows {
		q.file(q.alloc(q.overflow.pop()))
	}
}
