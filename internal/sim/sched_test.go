package sim

import (
	"fmt"
	"math/bits"
	"testing"
)

// evq is the scheduler contract shared by the 4-ary heap and the bucketed
// calendar queue; the property tests and benchmarks drive both through it.
type evq interface {
	push(event)
	pop() event
	size() int
	empty() bool
	nextAt() Time
}

var (
	_ evq = (*eventPQ)(nil)
	_ evq = (*schedQueue)(nil)
)

func (q *eventPQ) size() int    { return len(*q) }
func (q *eventPQ) empty() bool  { return len(*q) == 0 }
func (q *eventPQ) nextAt() Time { return (*q)[0].at }
func (q *schedQueue) size() int { return q.n }

// bucketWidth and ringSpan describe the default geometry, for the stream
// distributions.
const (
	bucketWidth = Time(1) << defaultBucketBits
	ringSpan    = Time(defaultRingBuckets) << defaultBucketBits
)

// splitmix64 is a tiny deterministic generator for the random streams (the
// test must not depend on other internal packages).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// delta draws one scheduling offset from the named distribution.
func delta(rng *splitmix64, dist string) Time {
	r := rng.next()
	switch dist {
	case "uniform": // spread across the ring's horizon
		return Time(r % uint64(ringSpan))
	case "same-tick": // dense bursts at the current instant
		if r%10 < 9 {
			return 0
		}
		return Time(r % uint64(ringSpan))
	case "bursty": // bursts on a few distinct near ticks
		return Time(r%8) * (ringSpan / 32)
	case "far": // long re-arm timers beyond coverage, plus near noise
		if r%4 == 0 {
			return Time(r % uint64(64*ringSpan))
		}
		return Time(r % uint64(bucketWidth))
	case "mixed":
		switch r % 3 {
		case 0:
			return 0
		case 1:
			return Time(r % uint64(ringSpan))
		default:
			return Time(r % uint64(16*ringSpan))
		}
	case "timers": // serve-failover's shape: near churn under re-arm timers
		switch r % 16 {
		case 0:
			return 4 * Millisecond
		case 1:
			return 5 * Millisecond
		case 2:
			return 20 * Millisecond
		case 3:
			if r>>8%8 == 0 { // a few timers past the far windows (~67 ms)
				return 70*Millisecond + Time(r>>16%uint64(100*Millisecond))
			}
		}
		if r>>8%2 == 0 {
			return 0
		}
		return Time(r >> 16 % uint64(2*bucketWidth))
	}
	panic("unknown distribution " + dist)
}

var schedDists = []string{"uniform", "same-tick", "bursty", "far", "mixed", "timers"}

// TestSchedPopOrderMatchesHeap is the scheduler's central property: on
// random event streams of every shape, the bucketed queue must pop the
// exact (at, seq) sequence the reference 4-ary heap pops — the ordering the
// golden traces depend on.
func TestSchedPopOrderMatchesHeap(t *testing.T) {
	for _, dist := range schedDists {
		t.Run(dist, func(t *testing.T) {
			rng := splitmix64(0xc0ffee)
			ref := &eventPQ{}
			got := &schedQueue{}
			var now Time
			var seq uint64
			push := func() {
				seq++
				e := event{at: now + delta(&rng, dist), seq: seq}
				ref.push(e)
				got.push(e)
			}
			pop := func() {
				want, have := ref.pop(), got.pop()
				if want.at != have.at || want.seq != have.seq {
					t.Fatalf("pop mismatch: heap (at=%v seq=%d) vs bucketed (at=%v seq=%d)",
						want.at, want.seq, have.at, have.seq)
				}
				if want.at < now {
					t.Fatalf("time went backwards: %v < %v", want.at, now)
				}
				now = want.at
			}
			windowed, overflowed := false, false
			for op := 0; op < 20000; op++ {
				if ref.empty() || rng.next()%5 < 3 {
					push()
				} else {
					pop()
				}
				if !ref.empty() {
					if w, h := ref.nextAt(), got.nextAt(); w != h {
						t.Fatalf("nextAt mismatch: heap %v vs bucketed %v", w, h)
					}
				}
				if ref.size() != got.size() {
					t.Fatalf("size mismatch: heap %d vs bucketed %d", ref.size(), got.size())
				}
				windowed = windowed || got.farOcc != 0
				overflowed = overflowed || len(got.overflow) > 0
			}
			for !ref.empty() {
				pop()
			}
			if !got.empty() {
				t.Fatalf("bucketed queue still holds %d events after drain", got.size())
			}
			if dist == "timers" && !(windowed && overflowed) {
				t.Fatalf("timers stream never reached both levels: windows %v, overflow %v", windowed, overflowed)
			}
		})
	}
}

// TestSchedRunUntilPauseThenPush models the session API's pause points: the
// engine peeks (nextAt) while paused before the next event, then schedules
// new events earlier than it. Peeking must not slide the coverage window
// past the paused clock, or the new pushes would land on the wrong lap.
func TestSchedRunUntilPauseThenPush(t *testing.T) {
	q := &schedQueue{}
	seq := uint64(0)
	push := func(at Time) event {
		seq++
		e := event{at: at, seq: seq}
		q.push(e)
		return e
	}
	push(5 * ringSpan) // a far timer, the only queued work
	if got := q.nextAt(); got != 5*ringSpan {
		t.Fatalf("nextAt = %v", got)
	}
	// Paused at some limit before the timer; new work arrives well before
	// the peeked event (but after the pause limit, as the engine enforces).
	early := push(bucketWidth + 3)
	if got := q.nextAt(); got != early.at {
		t.Fatalf("nextAt after early push = %v, want %v", got, early.at)
	}
	if e := q.pop(); e.at != early.at || e.seq != early.seq {
		t.Fatalf("pop = (at=%v seq=%d), want the early event", e.at, e.seq)
	}
	if e := q.pop(); e.at != 5*ringSpan {
		t.Fatalf("pop = at=%v, want the far timer", e.at)
	}

	// Paused late in a lap, with a timer filed in the next lap's far
	// window: an event pushed later at an even later time of that lap
	// must not hide it, and one pushed after both at an earlier time of
	// that lap must come first.
	q = &schedQueue{}
	far := push(ringSpan + ringSpan/2)
	push(ringSpan * 9 / 10)
	if e := q.pop(); e.at != ringSpan*9/10 {
		t.Fatalf("pop = at=%v, want the event late in the first lap", e.at)
	}
	later := push(ringSpan + ringSpan*6/10)
	if got := q.nextAt(); got != far.at {
		t.Fatalf("nextAt = %v, want the far-window timer %v before %v", got, far.at, later.at)
	}
	earlier := push(ringSpan + ringSpan/4)
	if got := q.nextAt(); got != earlier.at {
		t.Fatalf("nextAt = %v, want the earliest push %v", got, earlier.at)
	}
	for _, want := range []event{earlier, far, later} {
		if e := q.pop(); e.at != want.at || e.seq != want.seq {
			t.Fatalf("pop = (at=%v seq=%d), want (at=%v seq=%d)", e.at, e.seq, want.at, want.seq)
		}
	}
}

// TestSchedReleasesClosures: both schedulers recycle slice capacity and
// the bucketed one its node pool, so every vacated slot must drop its
// event — a retained event would pin its target (a Proc, a message, and
// transitively the whole simulated heap).
func TestSchedReleasesClosures(t *testing.T) {
	leaked := func(q []event) int {
		n := 0
		for _, e := range q[:cap(q)] {
			if e.ev != nil {
				n++
			}
		}
		return n
	}
	fill := func(q evq) {
		rng := splitmix64(7)
		var now Time
		for i := 0; i < 2000; i++ {
			q.push(event{at: now + delta(&rng, "timers"), seq: uint64(i), ev: &nopEvent{}})
			if i%3 == 0 {
				now = q.pop().at
			}
		}
		for !q.empty() {
			q.pop()
		}
	}

	h := &eventPQ{}
	fill(h)
	if n := leaked((*h)[:0]); n != 0 {
		t.Errorf("4-ary heap retained %d events after drain", n)
	}

	s := &schedQueue{}
	fill(s)
	if len(s.pool) < 2 || len(s.overflow[:cap(s.overflow)]) == 0 {
		t.Fatalf("stream never used the pool (%d nodes) and the overflow heap (%d slots)", len(s.pool), cap(s.overflow))
	}
	for i, nd := range s.pool[:cap(s.pool)] {
		if nd.event != (event{}) {
			t.Errorf("pool node %d retained (at=%v seq=%d) after drain", i, nd.at, nd.seq)
		}
	}
	if n := leaked(s.cur[:0]); n != 0 {
		t.Errorf("cursor bucket heap retained %d events after drain", n)
	}
	if n := leaked(s.overflow[:0]); n != 0 {
		t.Errorf("overflow heap retained %d events after drain", n)
	}
}

// TestSchedFreshQueueAllocations: a new queue's storage grows by doubling
// and reuses what it frees, so feeding it a long timers stream over a
// standing population of 1,024 events allocates O(log n) objects (27 at
// this writing) rather than growing one heap per ring bucket (per-bucket
// heaps took 1,575).
func TestSchedFreshQueueAllocations(t *testing.T) {
	const events, hold = 100_000, 1024
	allocs := testing.AllocsPerRun(1, func() {
		rng := splitmix64(0xfeed)
		q := &schedQueue{}
		var now Time
		for i := 0; i < events; i++ {
			q.push(event{at: now + delta(&rng, "timers"), seq: uint64(i)})
			for q.size() > hold {
				now = q.pop().at
			}
		}
		for !q.empty() {
			q.pop()
		}
	})
	if limit := 2 * bits.Len(events); allocs > float64(limit) {
		t.Fatalf("a fresh queue fed %d events allocated %.0f objects, want at most %d", events, allocs, limit)
	}
}

// TestWaitQueueReleasesProcRefs: a resource's FIFO waiter queue keeps its
// backing array across hand-offs, so each hand-off must clear the slot it
// vacates instead of pinning the proc that left it.
func TestWaitQueueReleasesProcRefs(t *testing.T) {
	e := NewEngine()
	r := NewResource("x")
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprint(i), func(p *Proc) { p.Use(r, 10) })
	}
	e.Run()
	for i, p := range r.waiters[:cap(r.waiters)] {
		if p != nil {
			t.Errorf("waiters slot %d still pins a proc", i)
		}
	}
}

// BenchmarkSchedPushPop measures steady-state pop+push cycles at two queue
// sizes, heap vs bucketed, across the event-shape distributions. The
// bucketed queue must be no slower than the heap on uniform loads and
// faster on dense near-horizon loads (where only the cursor's bucket is
// ordered while the global heap's depth grows with the whole population).
// BenchmarkSchedArrivalTimers models the open-loop serving pattern the
// ServeMix workload puts on the scheduler: a standing population of
// far-horizon arrival timers (workers sleeping until their next scheduled
// arrival, 1 to 257 laps out, so a quarter wait in the far windows and the
// rest in the overflow heap) underneath a dense near-tick service churn.
// Each cycle pops the next event and re-arms — mostly near service events,
// one in sixteen a fresh far arrival timer — so both far levels stay
// populated while the ring does the hot work. The bucketed queue must keep
// its near-tick advantage even with the far levels loaded.
func BenchmarkSchedArrivalTimers(b *testing.B) {
	far := func(rng *splitmix64, now Time) Time {
		return now + ringSpan + Time(rng.next()%uint64(256*ringSpan))
	}
	near := func(rng *splitmix64, now Time) Time {
		return now + Time(rng.next()%uint64(bucketWidth))
	}
	for _, impl := range []struct {
		name string
		make func() evq
	}{
		{"heap", func() evq { return &eventPQ{} }},
		{"bucket", func() evq { return &schedQueue{} }},
	} {
		for _, timers := range []int{8, 256} {
			b.Run(fmt.Sprintf("%s/timers=%d", impl.name, timers), func(b *testing.B) {
				rng := splitmix64(7)
				q := impl.make()
				var now Time
				var seq uint64
				for i := 0; i < timers; i++ {
					seq++
					q.push(event{at: far(&rng, now), seq: seq})
				}
				for i := 0; i < 64; i++ {
					seq++
					q.push(event{at: near(&rng, now), seq: seq})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e := q.pop()
					now = e.at
					seq++
					if rng.next()%16 == 0 {
						q.push(event{at: far(&rng, now), seq: seq})
					} else {
						q.push(event{at: near(&rng, now), seq: seq})
					}
				}
			})
		}
	}
}

func BenchmarkSchedPushPop(b *testing.B) {
	for _, impl := range []struct {
		name string
		make func() evq
	}{
		{"heap", func() evq { return &eventPQ{} }},
		{"bucket", func() evq { return &schedQueue{} }},
	} {
		for _, hold := range []int{64, 4096} {
			for _, dist := range schedDists {
				b.Run(fmt.Sprintf("%s/hold=%d/%s", impl.name, hold, dist), func(b *testing.B) {
					rng := splitmix64(42)
					q := impl.make()
					var now Time
					var seq uint64
					for i := 0; i < hold; i++ {
						seq++
						q.push(event{at: now + delta(&rng, dist), seq: seq})
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						e := q.pop()
						now = e.at
						seq++
						q.push(event{at: now + delta(&rng, dist), seq: seq})
					}
				})
			}
		}
	}
}
