package stack

import (
	"testing"

	"jessica2/internal/heap"
)

func testObjects(n int) []*heap.Object {
	reg := heap.NewRegistry()
	c := reg.DefineClass("T", 16, 0)
	out := make([]*heap.Object, n)
	for i := range out {
		out[i] = reg.Alloc(c, 0)
	}
	return out
}

func TestPushPopBasics(t *testing.T) {
	st := NewThreadStack()
	m := &Method{Name: "f"}
	f1 := st.Push(m, 2)
	if st.Depth() != 1 || top(st) != f1 || f1.depth != 0 {
		t.Fatal("push bookkeeping wrong")
	}
	f2 := st.Push(m, 1)
	if st.Depth() != 2 || top(st) != f2 || f2.depth != 1 {
		t.Fatal("second push wrong")
	}
	st.Pop()
	if top(st) != f1 {
		t.Fatal("pop wrong")
	}
	st.Pop()
	if st.Depth() != 0 || top(st) != nil {
		t.Fatal("empty stack wrong")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("pop of empty stack did not panic")
		}
	}()
	NewThreadStack().Pop()
}

func TestPrologueClearsVisited(t *testing.T) {
	st := NewThreadStack()
	m := &Method{Name: "f"}
	f := st.Push(m, 1)
	f.visited = true
	st.Pop()
	// Reused frame from the pool must have a cleared visited flag (the
	// JIT clears it in every method prologue).
	g := st.Push(m, 1)
	if g.visited {
		t.Fatal("reused frame kept visited flag")
	}
}

func TestFramePoolClearsSlots(t *testing.T) {
	objs := testObjects(1)
	st := NewThreadStack()
	m := &Method{Name: "f"}
	f := st.Push(m, 3)
	f.SetRef(1, objs[0])
	st.Pop()
	g := st.Push(m, 3)
	for i := 0; i < 3; i++ {
		if g.Ref(i) != nil {
			t.Fatal("reused frame kept stale refs")
		}
	}
}

func TestIncarnationsUnique(t *testing.T) {
	st := NewThreadStack()
	m := &Method{Name: "f"}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		f := st.Push(m, 0)
		if seen[f.inc] {
			t.Fatal("incarnation reused")
		}
		seen[f.inc] = true
		st.Pop()
	}
}

// TestInvariantMining: a ref that persists across samples becomes an
// invariant; a ref that changes is dropped.
func TestInvariantMining(t *testing.T) {
	objs := testObjects(3)
	st := NewThreadStack()
	m := &Method{Name: "run"}
	f := st.Push(m, 2)
	f.SetRef(0, objs[0]) // will stay
	f.SetRef(1, objs[1]) // will change

	sp := NewSampler(true)
	sp.SampleStack(st) // first visit: raw
	if len(sp.Invariants(st)) != 0 {
		t.Fatal("invariants before any comparison")
	}
	f.SetRef(1, objs[2]) // mutate slot 1
	sp.SampleStack(st)   // convert + compare
	inv := sp.Invariants(st)
	if len(inv) != 1 {
		t.Fatalf("invariants = %d, want 1", len(inv))
	}
	if inv[0].Obj != objs[0] || inv[0].Slot != 0 {
		t.Fatalf("wrong invariant: %+v", inv[0])
	}
	// Another unchanged round strengthens survival.
	sp.SampleStack(st)
	inv = sp.Invariants(st)
	if len(inv) != 1 || inv[0].Survived < 2 {
		t.Fatalf("survival not accumulating: %+v", inv)
	}
}

// TestLazyDiscardsTransientFrames: frames popped before a second visit are
// never extracted under lazy sampling (the optimization's whole point).
func TestLazyDiscardsTransientFrames(t *testing.T) {
	objs := testObjects(1)
	st := NewThreadStack()
	mStable := &Method{Name: "stable"}
	mTemp := &Method{Name: "temp"}
	st.Push(mStable, 1).SetRef(0, objs[0])

	sp := NewSampler(true)
	sp.SampleStack(st)

	var extracted int
	for i := 0; i < 5; i++ {
		tf := st.Push(mTemp, 4)
		tf.SetRef(2, objs[0])
		stats := sp.SampleStack(st)
		extracted += stats.SlotsExtracted
		st.Pop()
	}
	// The stable frame is extracted once (second visit); the temp frames
	// between samples are raw-captured but never extracted.
	if extracted > 1+4 {
		t.Fatalf("extracted %d slots; lazy mode should skip transient frames", extracted)
	}
	stats := sp.SampleStack(st)
	if stats.SamplesDropped == 0 {
		t.Fatal("no transient samples dropped")
	}
}

// TestImmediateExtractsEveryFirstVisit contrasts the immediate mode.
func TestImmediateExtractsEveryFirstVisit(t *testing.T) {
	st := NewThreadStack()
	m := &Method{Name: "f"}
	st.Push(m, 4)
	sp := NewSampler(false)
	stats := sp.SampleStack(st)
	if stats.SlotsExtracted != 4 {
		t.Fatalf("immediate extraction got %d slots, want 4", stats.SlotsExtracted)
	}
	if stats.RawCaptured != 0 {
		t.Fatal("immediate mode must not raw-capture")
	}
}

// TestLazyAndImmediateAgreeOnInvariants: the two modes differ in cost, not
// in the final invariant set.
func TestLazyAndImmediateAgreeOnInvariants(t *testing.T) {
	objs := testObjects(4)
	run := func(lazy bool) []*heap.Object {
		st := NewThreadStack()
		m := &Method{Name: "run"}
		f := st.Push(m, 3)
		f.SetRef(0, objs[0])
		f.SetRef(1, objs[1])
		f.SetRef(2, objs[2])
		sp := NewSampler(lazy)
		sp.SampleStack(st)
		f.SetRef(1, objs[3]) // slot 1 varies
		sp.SampleStack(st)
		sp.SampleStack(st)
		var out []*heap.Object
		for _, iv := range sp.Invariants(st) {
			out = append(out, iv.Obj)
		}
		return out
	}
	a, b := run(true), run(false)
	if len(a) != len(b) {
		t.Fatalf("lazy %d invariants vs immediate %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("modes disagree on invariants")
		}
	}
}

// TestTwoPhaseScanStopsAtVisited: frames below the first visited frame are
// not walked again ("we do not need to trace down further").
func TestTwoPhaseScanStopsAtVisited(t *testing.T) {
	st := NewThreadStack()
	m := &Method{Name: "f"}
	for i := 0; i < 5; i++ {
		st.Push(m, 1)
	}
	sp := NewSampler(true)
	s1 := sp.SampleStack(st) // all 5 frames walked
	if s1.FramesWalked != 5 {
		t.Fatalf("first sample walked %d frames", s1.FramesWalked)
	}
	st.Push(m, 1) // one new transient
	s2 := sp.SampleStack(st)
	// Walks the 1 new frame + the first visited frame; not the 4 below.
	if s2.FramesWalked > 2 {
		t.Fatalf("second sample walked %d frames, want <= 2", s2.FramesWalked)
	}
}

// TestFig7Scenario walks the paper's Fig. 7 lazy comparison sequence.
func TestFig7Scenario(t *testing.T) {
	objs := testObjects(4)
	st := NewThreadStack()
	mA := &Method{Name: "A"}
	mB := &Method{Name: "B"}
	mC := &Method{Name: "C"}
	sp := NewSampler(true)

	// State 1: frames A, B, C — all raw.
	fA := st.Push(mA, 2)
	fA.SetRef(0, objs[0])
	fA.SetRef(1, objs[1])
	fB := st.Push(mB, 1)
	fB.SetRef(0, objs[2])
	st.Push(mC, 1)
	s := sp.SampleStack(st)
	if s.RawCaptured != 4 || s.SlotsExtracted != 0 {
		t.Fatalf("state 1: raw=%d extracted=%d", s.RawCaptured, s.SlotsExtracted)
	}

	// State 2: C gone, D on top. B is compared; A untouched (raw).
	st.Pop() // C
	st.Push(&Method{Name: "D"}, 1)
	s = sp.SampleStack(st)
	if s.SlotsExtracted != 1 { // B's single slot converted
		t.Fatalf("state 2: extracted=%d, want 1 (frame B)", s.SlotsExtracted)
	}
	if s.SlotsCompared != 1 {
		t.Fatalf("state 2: compared=%d, want 1", s.SlotsCompared)
	}

	// State 3: B and D gone; E, F on top. A visited for the second time:
	// its raw sample is processed and compared.
	st.Pop() // D
	st.Pop() // B
	st.Push(&Method{Name: "E"}, 1)
	st.Push(&Method{Name: "F"}, 1)
	s = sp.SampleStack(st)
	if s.SlotsExtracted != 2 {
		t.Fatalf("state 3: extracted=%d, want 2 (frame A)", s.SlotsExtracted)
	}
	if s.SlotsCompared != 2 {
		t.Fatalf("state 3: compared=%d, want 2", s.SlotsCompared)
	}

	// A's refs are invariant now.
	st.Pop()
	st.Pop()
	inv := sp.Invariants(st)
	if len(inv) != 2 {
		t.Fatalf("invariants = %d, want 2 (frame A slots)", len(inv))
	}
}

// TestProbingShrinksOldSample: non-invariant slots are removed, so later
// comparisons are cheaper ("the old sample is usually much smaller").
func TestProbingShrinksOldSample(t *testing.T) {
	objs := testObjects(5)
	st := NewThreadStack()
	m := &Method{Name: "run"}
	f := st.Push(m, 4)
	for i := 0; i < 4; i++ {
		f.SetRef(i, objs[i])
	}
	sp := NewSampler(true)
	sp.SampleStack(st)
	// Change 3 of 4 slots.
	f.SetRef(0, objs[4])
	f.SetRef(1, nil)
	f.slots[2] = nil
	s2 := sp.SampleStack(st) // extraction + compare 4
	if s2.SlotsCompared != 4 {
		t.Fatalf("compared %d, want 4", s2.SlotsCompared)
	}
	s3 := sp.SampleStack(st) // only the surviving slot probed
	if s3.SlotsCompared != 1 {
		t.Fatalf("compared %d after shrink, want 1", s3.SlotsCompared)
	}
}

func TestInvariantsTopmostFirstAndDeduped(t *testing.T) {
	objs := testObjects(2)
	st := NewThreadStack()
	mBot := &Method{Name: "bottom"}
	mTop := &Method{Name: "top"}
	b := st.Push(mBot, 1)
	b.SetRef(0, objs[0])
	tp := st.Push(mTop, 2)
	tp.SetRef(0, objs[1])
	tp.SetRef(1, objs[0]) // duplicate of the bottom frame's ref

	sp := NewSampler(false)
	sp.SampleStack(st)
	sp.SampleStack(st)
	// Force the bottom frame to be compared too: pop the top frame and
	// sample twice more.
	st.Pop()
	sp.SampleStack(st)
	st.Push(mTop, 2)
	inv := sp.Invariants(st)
	if len(inv) != 1 {
		t.Fatalf("invariants = %d, want 1 (bottom only; top re-pushed frame is fresh)", len(inv))
	}
	if inv[0].Obj != objs[0] {
		t.Fatal("wrong invariant")
	}
}

// TestMinSurvivedThreshold: a slot counts as invariant once it has
// survived one comparison, and not before.
func TestMinSurvivedThreshold(t *testing.T) {
	objs := testObjects(1)
	st := NewThreadStack()
	f := st.Push(&Method{Name: "f"}, 1)
	f.SetRef(0, objs[0])
	sp := NewSampler(false)
	sp.SampleStack(st) // first visit: nothing compared yet
	if len(sp.Invariants(st)) != 0 {
		t.Fatal("invariant before any comparison")
	}
	sp.SampleStack(st) // survived 1
	if len(sp.Invariants(st)) != 1 {
		t.Fatal("invariant at threshold missing")
	}
}

func TestEmptyStackSample(t *testing.T) {
	st := NewThreadStack()
	sp := NewSampler(true)
	s := sp.SampleStack(st)
	if s.FramesWalked != 0 || len(sp.samples) != 0 {
		t.Fatal("empty stack sampling should be a no-op")
	}
}

func TestStatsAccumulate(t *testing.T) {
	st := NewThreadStack()
	st.Push(&Method{Name: "f"}, 2)
	sp := NewSampler(true)
	sp.SampleStack(st)
	sp.SampleStack(st)
	if sp.Total.RawCaptured != 2 || sp.Total.SlotsExtracted != 2 {
		t.Fatalf("total stats wrong: %+v", sp.Total)
	}
}

// TestWarmSampleCycleAllocatesNothing: once the free list is warm, pushing
// a frame, sampling the stack and popping the frame again allocates
// nothing, under lazy and immediate extraction alike. The next first
// visit reuses the popped frame's sample with its slot arrays, and the
// discard pass reuses one live set, here larger than a small map.
func TestWarmSampleCycleAllocatesNothing(t *testing.T) {
	objs := testObjects(4)
	m := &Method{Name: "f"}
	for _, lazy := range []bool{true, false} {
		sp := NewSampler(lazy)
		st := NewThreadStack()
		for i := 0; i < 16; i++ {
			st.Push(m, 2).SetRef(0, objs[0])
		}
		cycle := func() {
			f := st.Push(m, 4)
			f.SetRef(1, objs[1])
			f.SetRef(3, objs[3])
			sp.SampleStack(st)
			st.Pop()
		}
		for i := 0; i < 10; i++ {
			cycle()
		}
		if got := testing.AllocsPerRun(100, cycle); got != 0 {
			t.Errorf("lazy=%v: warm push/sample/pop allocates %v times, want 0", lazy, got)
		}
	}
}

// TestRecycledSampleCarriesNoSlots: the sample of a popped frame is reused
// by a later frame's first visit, and it must arrive empty. The later
// frame holds the same references at the same slots, so a leftover entry
// would survive the comparison too and show up as an extra compared slot
// or an invariant that survived twice.
func TestRecycledSampleCarriesNoSlots(t *testing.T) {
	objs := testObjects(4)
	m := &Method{Name: "f"}
	fill := func(f *Frame) {
		for i, o := range objs {
			f.SetRef(i, o)
		}
	}
	for _, lazy := range []bool{true, false} {
		sp := NewSampler(lazy)
		st := NewThreadStack()
		st.Push(m, 1)
		fill(st.Push(m, 4))
		sp.SampleStack(st)
		sp.SampleStack(st) // the frame's four slots are now invariant
		st.Pop()
		st.Push(m, 1)
		sp.SampleStack(st) // discards the popped frame's sample
		st.Pop()
		fill(st.Push(m, 4))
		sp.SampleStack(st) // first visit: reuses the discarded sample
		if got := sp.SampleStack(st).SlotsCompared; got != len(objs) {
			t.Errorf("lazy=%v: second visit compared %d slots, want %d", lazy, got, len(objs))
		}
		inv := sp.Invariants(st)
		if len(inv) != len(objs) {
			t.Fatalf("lazy=%v: %d invariants, want %d: %+v", lazy, len(inv), len(objs), inv)
		}
		for i, r := range inv {
			if r.Depth != 1 || r.Slot != i || r.Obj != objs[i] || r.Survived != 1 {
				t.Errorf("lazy=%v: invariant %d = %+v, want slot %d of depth 1 surviving once", lazy, i, r, i)
			}
		}
	}
}

// top returns st's topmost frame, or nil.
func top(st *ThreadStack) *Frame {
	if len(st.frames) == 0 {
		return nil
	}
	return st.frames[len(st.frames)-1]
}
