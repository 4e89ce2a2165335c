package tcm

import (
	"slices"
	"testing"
	"testing/quick"

	"jessica2/internal/xrand"
)

func TestSummarizeRoundTrip(t *testing.T) {
	b := NewBuilder(4)
	b.AddAccess(0, 10, 100)
	b.AddAccess(1, 10, 100)
	b.AddAccess(2, 20, 50)
	b.AddAccess(3, 20, 50)
	b.AddAccess(0, 20, 50)
	s := b.Summarize()
	if len(s.Objs) != 2 {
		t.Fatalf("objs = %d", len(s.Objs))
	}
	// Keys sorted.
	if s.Objs[0].Key != 10 || s.Objs[1].Key != 20 {
		t.Fatalf("keys = %v, %v", s.Objs[0].Key, s.Objs[1].Key)
	}
	// Thread lists sorted.
	if len(s.Objs[1].Threads) != 3 || s.Objs[1].Threads[0] != 0 || s.Objs[1].Threads[2] != 3 {
		t.Fatalf("threads = %v", s.Objs[1].Threads)
	}
	// Ingesting into a fresh builder reproduces the map.
	b2 := NewBuilder(4)
	b2.IngestSummary(s)
	m1, _ := b.Build()
	m2, _ := b2.Build()
	if DistanceABS(m1, m2) != 0 {
		t.Fatal("summary round-trip changed the map")
	}
}

func TestSummaryMergeUnionsThreads(t *testing.T) {
	// Thread 0's access known to builder A, thread 1's to builder B: the
	// pair appears only after merging.
	a := NewBuilder(2)
	a.AddAccess(0, 7, 64)
	b := NewBuilder(2)
	b.AddAccess(1, 7, 64)
	ma, _ := a.Build()
	if ma.Total() != 0 {
		t.Fatal("partial builder should see no pairs")
	}
	master := NewBuilder(2)
	master.IngestSummary(a.Summarize())
	master.IngestSummary(b.Summarize())
	m, _ := master.Build()
	if m.At(0, 1) != 64 {
		t.Fatalf("merged pair volume = %v, want 64", m.At(0, 1))
	}
}

func TestSummaryLargerBytesWin(t *testing.T) {
	a := NewBuilder(2)
	a.AddAccess(0, 7, 40)
	s := a.Summarize()
	b := NewBuilder(2)
	b.AddAccess(1, 7, 90)
	b.IngestSummary(s)
	m, _ := b.Build()
	if m.At(0, 1) != 90 {
		t.Fatalf("merged weight = %v, want 90", m.At(0, 1))
	}
}

func TestSummaryWireBytes(t *testing.T) {
	s := &Summary{Objs: []ObjSummary{
		{Key: 1, Bytes: 10, Threads: []int32{0, 1}},
		{Key: 2, Bytes: 20, Threads: []int32{2}},
	}}
	want := 8 + (14 + 2*2) + (14 + 2*1)
	if s.WireBytes() != want {
		t.Fatalf("wire = %d, want %d", s.WireBytes(), want)
	}
	empty := &Summary{}
	if empty.WireBytes() != 8 {
		t.Fatal("empty summary wire size wrong")
	}
}

// Property: for any access pattern, splitting records across k partial
// builders and merging equals central ingestion.
func TestQuickDistributedEquivalence(t *testing.T) {
	f := func(accesses []uint16) bool {
		const threads = 4
		central := NewBuilder(threads)
		parts := []*Builder{NewBuilder(threads), NewBuilder(threads), NewBuilder(threads)}
		for i, a := range accesses {
			th := int(a) % threads
			obj := int64(a>>2) % 17
			bytes := float64(a%5)*10 + 10
			central.AddAccess(th, obj, bytes)
			parts[i%3].AddAccess(th, obj, bytes)
		}
		master := NewBuilder(threads)
		for _, p := range parts {
			master.IngestSummary(p.Summarize())
		}
		mc, _ := central.Build()
		md, _ := master.Build()
		return DistanceABS(mc, md) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeAllocatesConstant: every thread list shares one backing
// array, so a summary costs the same allocations at any object count.
func TestSummarizeAllocatesConstant(t *testing.T) {
	for _, objects := range []int64{1, 100, 10000} {
		b := NewBuilder(8)
		for o := int64(0); o < objects; o++ {
			b.AddAccess(int(o)%8, o, 64)
			b.AddAccess(int(o+3)%8, o, 64)
		}
		if got := testing.AllocsPerRun(10, func() { b.Summarize() }); got > 3 {
			t.Errorf("Summarize of %d objects allocates %v times, want at most 3", objects, got)
		}
	}
}

// TestSummarizeThreadListsAreCapped: appending to one object's thread list
// must not write into the next object's list, with which it shares a
// backing array.
func TestSummarizeThreadListsAreCapped(t *testing.T) {
	b := NewBuilder(4)
	b.AddAccess(0, 10, 100)
	b.AddAccess(1, 10, 100)
	b.AddAccess(2, 20, 50)
	b.AddAccess(3, 20, 50)
	s := b.Summarize()
	_ = append(s.Objs[0].Threads, 3)
	if got := s.Objs[1].Threads; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("next object's threads = %v after appending to the first, want [2 3]", got)
	}
}

// TestSharedKeysMatchSummary: SharedKeys lists, in ascending order, exactly
// the summary's objects with two or more threads, over seeded random
// builders, and allocates nothing once its scratch has grown.
func TestSharedKeysMatchSummary(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		b := NewBuilder(1 + rng.Intn(12))
		for i, n := 0, rng.Intn(2000); i < n; i++ {
			b.AddAccess(rng.Intn(b.N()), int64(rng.Intn(500)), float64(1+rng.Intn(64)))
		}
		var want []int64
		for _, o := range b.Summarize().Objs {
			if len(o.Threads) >= 2 {
				want = append(want, o.Key)
			}
		}
		if got := b.SharedKeys(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: SharedKeys = %v, want %v", seed, got, want)
		}
		if got := testing.AllocsPerRun(5, func() { b.SharedKeys() }); got != 0 {
			t.Errorf("seed %d: SharedKeys allocates %v times once grown", seed, got)
		}
	}
}
