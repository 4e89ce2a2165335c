package sim

import (
	"fmt"
	"testing"
)

// schedGeometries spans the sweep: narrow/short, default, wide/long, and
// skewed rings (the ROADMAP's geometry-tuning item).
var schedGeometries = []struct {
	bits, buckets int
}{
	{10, 64},
	{12, 256}, // default
	{12, 1024},
	{14, 128},
	{16, 64},
}

// TestSchedGeometryPopOrderMatchesHeap extends the scheduler's central
// property to every configured geometry: bucket width and ring size move
// events between the ring, the far windows and the overflow heap, but the
// popped (at, seq) sequence must stay exactly the reference heap's.
// Geometry is a host-cost knob, never a results knob.
func TestSchedGeometryPopOrderMatchesHeap(t *testing.T) {
	for _, g := range schedGeometries {
		for _, dist := range schedDists {
			t.Run(fmt.Sprintf("b%d/r%d/%s", g.bits, g.buckets, dist), func(t *testing.T) {
				rng := splitmix64(0xbadcafe)
				ref := &eventPQ{}
				got := &schedQueue{}
				got.init(g.bits, g.buckets)
				var now Time
				var seq uint64
				for op := 0; op < 8000; op++ {
					if ref.empty() || rng.next()%5 < 3 {
						seq++
						e := event{at: now + delta(&rng, dist), seq: seq}
						ref.push(e)
						got.push(e)
					} else {
						want, have := ref.pop(), got.pop()
						if want.at != have.at || want.seq != have.seq {
							t.Fatalf("pop mismatch: heap (at=%v seq=%d) vs bucketed (at=%v seq=%d)",
								want.at, want.seq, have.at, have.seq)
						}
						now = want.at
					}
					if !ref.empty() {
						if w, h := ref.nextAt(), got.nextAt(); w != h {
							t.Fatalf("nextAt mismatch: heap %v vs bucketed %v", w, h)
						}
					}
				}
				for !ref.empty() {
					want, have := ref.pop(), got.pop()
					if want.at != have.at || want.seq != have.seq {
						t.Fatalf("drain mismatch")
					}
				}
				if !got.empty() {
					t.Fatalf("bucketed queue still holds %d events", got.size())
				}
			})
		}
	}
}

// TestSchedGeometryValidation: invalid geometries must fail loudly, and a
// queue's first push must adopt the default geometry.
func TestSchedGeometryValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("non-power-of-two ring", func() {
		(&schedQueue{}).init(defaultBucketBits, 100)
	})
	mustPanic("tiny ring", func() {
		(&schedQueue{}).init(defaultBucketBits, 32)
	})
	mustPanic("bucket bits out of range", func() {
		(&schedQueue{}).init(48, defaultRingBuckets)
	})
	mustPanic("span overflow", func() {
		// Each bound is individually legal but the coverage span
		// buckets<<bits would wrap past Time's range.
		(&schedQueue{}).init(40, 1<<24)
	})

	def := &schedQueue{}
	def.push(event{at: 1})
	if Time(1)<<def.shift != ringSpan || def.bits != defaultBucketBits {
		t.Fatalf("first-push geometry = %d-bit × %d, want defaults", def.bits, def.mask+1)
	}
}

// TestEngineWithGeometryRuns: an engine on a non-default geometry schedules
// and fires events in the same order as a default one.
func TestEngineWithGeometryRuns(t *testing.T) {
	fire := func(e *Engine) []int {
		var order []int
		for i := 0; i < 64; i++ {
			i := i
			e.Schedule(Time(i%7)*bucketWidth*3, func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a := fire(NewEngine())
	e := NewEngine()
	e.queue.init(9, 64)
	b := fire(e)
	if len(a) != len(b) {
		t.Fatalf("fired %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fire order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// BenchmarkSchedGeometry is the ROADMAP-requested geometry sweep: steady
// state pop+push cycles across bucket-width × ring-size combinations under
// the dense (same-tick), uniform and far-timer distributions, at two queue
// populations. It quantifies how much horizon the ring and its far windows
// are worth and when wider buckets start smearing a busy instant.
func BenchmarkSchedGeometry(b *testing.B) {
	for _, g := range schedGeometries {
		for _, hold := range []int{64, 4096} {
			for _, dist := range []string{"same-tick", "uniform", "far"} {
				b.Run(fmt.Sprintf("b%d/r%d/hold=%d/%s", g.bits, g.buckets, hold, dist), func(b *testing.B) {
					rng := splitmix64(42)
					q := &schedQueue{}
					q.init(g.bits, g.buckets)
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
