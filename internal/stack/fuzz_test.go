package stack

import (
	"testing"

	"jessica2/internal/heap"
)

// FuzzSamplerMiner interprets the fuzz input as an op stream over a shadow
// stack and the adaptive sampler — pushes, pops, slot stores/clears and
// sampler activations in adversarial orders — and asserts the sampler and
// the invariant miner never panic and never report impossible invariants.
func FuzzSamplerMiner(f *testing.F) {
	f.Add([]byte{}, true)
	// push, setref, sample, sample (compare), mine.
	f.Add([]byte{0x03, 0x21, 0x40, 0x40}, true)
	// Deep push/pop churn with interleaved samples, immediate extraction.
	f.Add([]byte{0x02, 0x02, 0x40, 0x01, 0x40, 0x01, 0x02, 0x40, 0x21, 0x40}, false)
	// Slot clears between comparisons kill invariants.
	f.Add([]byte{0x03, 0x21, 0x40, 0x31, 0x40, 0x40}, true)

	f.Fuzz(func(t *testing.T, data []byte, lazy bool) {
		st := NewThreadStack()
		sp := NewSampler(lazy)

		// A small fixed object pool; slot refs index into it.
		objs := make([]*heap.Object, 8)
		cls := &heap.Class{Name: "Fuzz", Size: 8}
		for i := range objs {
			objs[i] = &heap.Object{ID: heap.ObjectID(i + 1), Class: cls}
		}
		methods := []*Method{{Name: "a"}, {Name: "b"}, {Name: "c"}}

		for _, b := range data {
			op, arg := b>>4, int(b&0x0f)
			switch op % 5 {
			case 0: // push a frame with arg%5 slots
				if st.Depth() < 64 {
					st.Push(methods[arg%len(methods)], arg%5)
				}
			case 1: // pop
				if st.Depth() > 0 {
					st.Pop()
				}
			case 2: // store a ref into a slot of the top frame
				if f := top(st); f != nil && f.NumSlots() > 0 {
					f.SetRef(arg%f.NumSlots(), objs[arg%len(objs)])
				}
			case 3: // clear a slot of the top frame
				if f := top(st); f != nil && f.NumSlots() > 0 {
					f.slots[arg%f.NumSlots()] = nil
				}
			case 4: // sampler activation + mine
				stats := sp.SampleStack(st)
				if stats.FramesWalked < 0 || stats.SlotsExtracted < 0 ||
					stats.SlotsCompared < 0 || stats.RawCaptured < 0 {
					t.Fatalf("negative sampler stats: %+v", stats)
				}
				// After an activation, retained samples never exceed the
				// live frame count (popped frames' samples are discarded).
				if len(sp.samples) > st.Depth() {
					t.Fatalf("samples %d > live frames %d", len(sp.samples), st.Depth())
				}
				checkInvariants(t, sp, st, objs)
			}
		}
		checkInvariants(t, sp, st, objs)
	})
}

// checkInvariants asserts every mined invariant is possible: a non-nil
// pooled object, at a live depth, in a valid slot, with positive survival,
// and no object reported twice.
func checkInvariants(t *testing.T, sp *Sampler, st *ThreadStack, objs []*heap.Object) {
	t.Helper()
	seen := make(map[*heap.Object]bool)
	for _, ref := range sp.Invariants(st) {
		if ref.Obj == nil {
			t.Fatal("nil invariant object")
		}
		if seen[ref.Obj] {
			t.Fatalf("object %d reported twice", ref.Obj.ID)
		}
		seen[ref.Obj] = true
		if ref.Depth < 0 || ref.Depth >= st.Depth() {
			t.Fatalf("invariant at depth %d of a %d-deep stack", ref.Depth, st.Depth())
		}
		f := st.FrameAt(ref.Depth)
		if ref.Slot < 0 || ref.Slot >= f.NumSlots() {
			t.Fatalf("invariant slot %d of %d", ref.Slot, f.NumSlots())
		}
		if ref.Survived < 1 {
			t.Fatalf("invariant survived %d comparisons", ref.Survived)
		}
		// A slot that survived a comparison still holds the same ref
		// unless mutated after the last sample; it must at least be one
		// of the pool objects.
		found := false
		for _, o := range objs {
			if o == ref.Obj {
				found = true
			}
		}
		if !found {
			t.Fatalf("invariant references an unknown object %d", ref.Obj.ID)
		}
	}
}
