package tcm

import (
	"fmt"
	"reflect"
	"testing"
)

// TestFreePoolCapAfterStormWindow is the pool-growth regression test: a
// storm window that ingests a huge object population must not permanently
// pin its peak entry memory — within one subsequent small window the
// retained entry storage, the capacity of Builder's entry and bitset
// arrays, must shrink to the small window's working set (freePoolCap).
func TestFreePoolCapAfterStormWindow(t *testing.T) {
	const storm, small = 20000, 50
	t.Run("incremental", func(t *testing.T) {
		b := NewBuilder(4)
		for o := int64(0); o < storm; o++ {
			b.AddAccess(int(o)%4, o, 64)
		}
		b.Reset()
		if len(b.ents) != 0 || cap(b.ents) < storm {
			t.Fatalf("after storm reset: %d entries, capacity %d, want 0 entries and capacity >= %d",
				len(b.ents), cap(b.ents), storm)
		}
		for o := int64(0); o < small; o++ {
			b.AddAccess(int(o)%4, o, 64)
		}
		b.Reset()
		if max := freePoolCap(small); cap(b.ents) > max || cap(b.bits) > max*b.words {
			t.Fatalf("after small-window reset: entry capacity %d, bitset capacity %d, want <= %d and <= %d",
				cap(b.ents), cap(b.bits), max, max*b.words)
		}
	})
}

// TestPeekIntoDirtyPath pins the O(dirty) re-sync: successive PeekInto
// calls on the same scratch must take the incremental path (same pointer,
// no reallocation) and still be bit-identical to a fresh full render after
// every kind of mutation — new pairs, weight upgrades, member joins,
// resets and dirty-list overflow into the allDirty fallback.
func TestPeekIntoDirtyPath(t *testing.T) {
	const n = 8
	b := NewBuilder(n)
	rng := equivRand(0xd1e7)
	dst := b.PeekInto(nil)
	check := func(tag string) {
		t.Helper()
		got := b.PeekInto(dst)
		if got != dst {
			t.Fatalf("%s: PeekInto reallocated the scratch", tag)
		}
		assertMapsBitEqual(t, tag, got, b.Peek())
	}
	check("empty")
	b.AddAccess(0, 1, 100)
	b.AddAccess(1, 1, 100)
	check("first pair")
	check("no change")     // zero dirty cells: must still be correct
	b.AddAccess(2, 1, 250) // join + upgrade in one access
	check("join and upgrade")
	for op := 0; op < 3000; op++ {
		b.AddAccess(int(rng.next()%n), int64(rng.next()%64), float64(rng.next()%4096))
		if op%97 == 0 {
			check(fmt.Sprintf("random op %d", op))
		}
	}
	check("random stream")
	if b.allDirty {
		t.Log("allDirty fallback engaged during the stream (expected on dense mutation)")
	}
	b.Reset()
	check("after reset")
	b.AddAccess(3, 9, 640)
	b.AddAccess(5, 9, 640)
	check("fresh window")
}

// TestVisitNewlySharedPending pins the incremental pending-list semantics:
// objects surface once per sharing transition, consumed entries retire,
// declined entries stay pending, ad-hoc (non-consuming) visits do not
// retire anything, and Reset clears the list.
func TestVisitNewlySharedPending(t *testing.T) {
	b := NewBuilder(4)
	collect := func(consume bool, accept func(key int64) bool) []int64 {
		var keys []int64
		b.VisitNewlyShared(consume, func(key int64, bytes float64, threads []int32) bool {
			keys = append(keys, key)
			return accept(key)
		})
		return keys
	}
	all := func(int64) bool { return true }

	b.AddAccess(0, 10, 100) // single-thread object: never pending
	b.AddAccess(0, 20, 50)
	b.AddAccess(1, 20, 50) // becomes shared
	b.AddAccess(2, 5, 70)
	b.AddAccess(3, 5, 70) // becomes shared

	if got := collect(false, all); len(got) != 2 || got[0] != 5 || got[1] != 20 {
		t.Fatalf("ad-hoc visit = %v, want [5 20] (sorted, shared only)", got)
	}
	if got := collect(false, all); len(got) != 2 {
		t.Fatalf("ad-hoc visit must not consume; second visit = %v", got)
	}
	// Consume 20, decline 5: it must stay pending.
	collect(true, func(key int64) bool { return key == 20 })
	if got := collect(false, all); len(got) != 1 || got[0] != 5 {
		t.Fatalf("after partial consume = %v, want [5]", got)
	}
	// A third thread joining an already-shared object is not a new
	// sharing transition.
	b.AddAccess(2, 20, 50)
	if got := collect(true, all); len(got) != 1 || got[0] != 5 {
		t.Fatalf("member join re-pended: %v", got)
	}
	if got := collect(true, all); got != nil {
		t.Fatalf("pending list not drained: %v", got)
	}

	b.Reset()
	if got := collect(true, all); got != nil {
		t.Fatalf("pending survives Reset: %v", got)
	}
	// Re-sharing after a reset is a new transition.
	b.AddAccess(0, 20, 50)
	b.AddAccess(1, 20, 50)
	if got := collect(true, all); len(got) != 1 || got[0] != 20 {
		t.Fatalf("post-reset re-share = %v, want [20]", got)
	}
}

// TestVisitNewlySharedParityWithFull drives Builder through the session's
// consumption protocol (boundary visits consume, ad-hoc visits only peek)
// and checks every visit against the oracle: the objects FullBuilder holds
// as shared by two or more threads, minus those a consuming visit retired
// since the last Reset, in ascending key order with the same weight and
// accessor ids.
func TestVisitNewlySharedParityWithFull(t *testing.T) {
	const n = 6
	rng := equivRand(0x5eed)
	inc := NewBuilder(n)
	full := NewFullBuilder(n)
	retired := map[int64]bool{}
	for round := 0; round < 200; round++ {
		for i := 0; i < 20; i++ {
			th := int(rng.next() % n)
			key := int64(rng.next() % 30)
			w := float64(rng.next() % 1000)
			inc.AddAccess(th, key, w)
			full.AddAccess(th, key, w)
		}
		var want, got []ObjSummary
		for _, o := range full.Summarize().Objs {
			if len(o.Threads) >= 2 && !retired[o.Key] {
				want = append(want, o)
			}
		}
		consume := round%3 != 2 // mix boundary and ad-hoc snapshots
		inc.VisitNewlyShared(consume, func(key int64, bytes float64, threads []int32) bool {
			got = append(got, ObjSummary{Key: key, Bytes: bytes, Threads: append([]int32(nil), threads...)})
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: surfaced %v, oracle %v", round, got, want)
		}
		if consume {
			for _, o := range got {
				retired[o.Key] = true
			}
		}
		if round%17 == 16 {
			inc.Reset()
			full.Reset()
			clear(retired)
		}
	}
}

// TestBuilderFreshObjectsAllocateLittle: entries live by value in one
// slice and their bitsets in one flat array, so a fresh object costs only
// its share of the arrays' and the key map's amortized growth.
func TestBuilderFreshObjectsAllocateLittle(t *testing.T) {
	const objects = 10000
	allocs := testing.AllocsPerRun(1, func() {
		b := NewBuilder(8)
		for o := int64(0); o < objects; o++ {
			b.AddAccess(int(o)%8, o, 64)
		}
	})
	if per := allocs / objects; per >= 0.05 {
		t.Fatalf("ingesting %d fresh objects allocates %v times (%.3f per object), want < 0.05 per object",
			objects, allocs, per)
	}
}
