// Package stack models thread stacks of the distributed JVM and implements
// the paper's adaptive stack sampling algorithm (Fig. 8): timer-activated
// sampling with two-phase scanning (top-down to the first visited frame,
// bottom-up raw capture), lazy frame-content extraction, and sample
// comparison by probing. Its output is the set of stack-invariant object
// references — the entry points from which the sticky-set resolver
// prefetches.
//
// The JVM specification defines the stack machine only conceptually; Kaffe
// (the paper's base JVM) maps each Java frame slot to a unique native
// address, which is why frame extraction is possible at all. Our shadow
// stack plays that role: workloads push frames on method entry, store
// object references into slots, and pop on return, so the sampler sees the
// same structure a native stack walk would.
package stack

import (
	"sort"

	"jessica2/internal/heap"
)

// Method identifies a Java method for frame bookkeeping.
type Method struct {
	Name string
}

// Frame is one shadow Java frame. The visited flag mirrors the paper's
// JIT-maintained flag: it is cleared in every method prologue (i.e. when
// the frame is pushed) and set by the sampler.
type Frame struct {
	Method  *Method
	inc     uint64 // incarnation: unique per push, identifies frame instances
	depth   int
	visited bool
	slots   []*heap.Object // nil entries are non-reference or empty slots
}

// NumSlots returns the frame's slot count.
func (f *Frame) NumSlots() int { return len(f.slots) }

// SetRef stores an object reference into slot i.
func (f *Frame) SetRef(i int, o *heap.Object) { f.slots[i] = o }

// Ref returns the reference in slot i (nil for non-reference content).
func (f *Frame) Ref(i int) *heap.Object { return f.slots[i] }

// ThreadStack is one thread's shadow stack. Popped frames are pooled and
// reused by later pushes (workloads like Barnes-Hut push millions of
// transient recursion frames); incarnation ids keep reused frames distinct
// for the sampler.
type ThreadStack struct {
	frames  []*Frame
	nextInc uint64
	pool    []*Frame
}

// NewThreadStack returns an empty stack.
func NewThreadStack() *ThreadStack { return &ThreadStack{} }

// Push enters a method with nslots slots; the visited flag starts cleared,
// as the JIT-inserted prologue guarantees.
func (s *ThreadStack) Push(m *Method, nslots int) *Frame {
	s.nextInc++
	var f *Frame
	if n := len(s.pool); n > 0 {
		f = s.pool[n-1]
		s.pool = s.pool[:n-1]
		f.Method = m
		f.visited = false
		if cap(f.slots) >= nslots {
			f.slots = f.slots[:nslots]
			for i := range f.slots {
				f.slots[i] = nil
			}
		} else {
			f.slots = make([]*heap.Object, nslots)
		}
	} else {
		f = &Frame{slots: make([]*heap.Object, nslots)}
		f.Method = m
	}
	f.inc = s.nextInc
	f.depth = len(s.frames)
	s.frames = append(s.frames, f)
	return f
}

// Pop leaves the current method; the frame returns to the pool.
func (s *ThreadStack) Pop() {
	if len(s.frames) == 0 {
		panic("stack: pop of empty stack")
	}
	f := s.frames[len(s.frames)-1]
	s.frames[len(s.frames)-1] = nil
	s.frames = s.frames[:len(s.frames)-1]
	if len(s.pool) < 256 {
		s.pool = append(s.pool, f)
	}
}

// Depth returns the current frame count.
func (s *ThreadStack) Depth() int { return len(s.frames) }

// FrameAt returns the frame at depth i (0 = bottom).
func (s *ThreadStack) FrameAt(i int) *Frame { return s.frames[i] }

// --- sampler ---------------------------------------------------------------

// slotEntry is one surviving slot of a processed sample.
type slotEntry struct {
	idx      int
	ref      *heap.Object
	survived int // comparisons this slot has survived
}

// frameSample is the stored sample for one frame incarnation. Raw samples
// hold an unprocessed snapshot (cheap memcpy); processed samples hold only
// the surviving reference slots ("non-reference and non-invariant slots
// have been discarded in previous samples").
type frameSample struct {
	raw      bool
	rawSlots []*heap.Object
	slots    []slotEntry
	compared int
}

// minSurvived is how many comparisons a slot must survive to count as
// invariant (the paper needs at least one).
const minSurvived = 1

// Stats quantifies one SampleStack call so the profiler can charge CPU:
// raw captures are cheap copies, extractions require the reflection /
// layout query (GET-METHOD-BY-PC), comparisons probe old slots into the
// new frame.
type Stats struct {
	FramesWalked   int
	RawCaptured    int // slots captured raw
	SlotsExtracted int // slots converted/extracted (expensive path)
	SlotsCompared  int // probing comparisons
	SamplesDropped int // discarded samples of popped frames
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.FramesWalked += other.FramesWalked
	s.RawCaptured += other.RawCaptured
	s.SlotsExtracted += other.SlotsExtracted
	s.SlotsCompared += other.SlotsCompared
	s.SamplesDropped += other.SamplesDropped
}

// Sampler holds per-thread sampling state across timer activations.
type Sampler struct {
	// lazy enables lazy extraction: first visits store a raw snapshot and
	// content extraction is deferred to the second visit. When false,
	// extraction is immediate (the paper's comparison baseline).
	lazy    bool
	samples map[uint64]*frameSample
	// free recycles the samples of popped frames, slot arrays included;
	// live is the discard pass's scratch set of live incarnations.
	free []*frameSample
	live map[uint64]struct{}
	// Total accumulates stats over the sampler's lifetime.
	Total Stats
}

// NewSampler returns a sampler with lazy or immediate extraction.
func NewSampler(lazy bool) *Sampler {
	return &Sampler{lazy: lazy, samples: make(map[uint64]*frameSample)}
}

// SampleStack runs one activation of SAMPLE-STACK (Fig. 8) over st.
func (sp *Sampler) SampleStack(st *ThreadStack) Stats {
	var stats Stats
	n := st.Depth()
	// Top-down phase: walk from the top until the first visited frame.
	i := n - 1
	for i >= 0 && !st.frames[i].visited {
		stats.FramesWalked++
		i--
	}
	if i >= 0 {
		f := st.frames[i]
		stats.FramesWalked++
		smp := sp.samples[f.inc]
		if smp == nil {
			// Defensive: a visited frame always has a sample in-protocol;
			// recover by treating it as a first visit.
			smp = sp.captureSample(f, &stats)
			sp.samples[f.inc] = smp
		} else {
			if smp.raw {
				sp.convertRaw(smp, &stats)
			}
			sp.compareByProbing(smp, f, &stats)
		}
	}
	// Bottom-up phase: first-visit every frame above i, capturing samples
	// and setting visited flags.
	for j := i + 1; j < n; j++ {
		f := st.frames[j]
		f.visited = true
		sp.samples[f.inc] = sp.captureSample(f, &stats)
	}
	// Discard samples of frames that were popped ("if it is not visited
	// for the second time, it will be discarded on the next sampling").
	if len(sp.samples) > n {
		if sp.live == nil {
			sp.live = make(map[uint64]struct{}, n)
		}
		clear(sp.live)
		for _, f := range st.frames {
			sp.live[f.inc] = struct{}{}
		}
		for inc, smp := range sp.samples {
			if _, ok := sp.live[inc]; !ok {
				delete(sp.samples, inc)
				sp.freeSample(smp)
				stats.SamplesDropped++
			}
		}
	}
	sp.Total.Add(stats)
	return stats
}

// captureSample takes a first-visit sample: raw under lazy extraction,
// fully extracted otherwise.
func (sp *Sampler) captureSample(f *Frame, stats *Stats) *frameSample {
	smp := sp.newSample()
	if sp.lazy {
		smp.raw = true
		smp.rawSlots = append(smp.rawSlots, f.slots...)
		stats.RawCaptured += len(f.slots)
		return smp
	}
	for idx, ref := range f.slots {
		stats.SlotsExtracted++
		if ref != nil {
			smp.slots = append(smp.slots, slotEntry{idx: idx, ref: ref})
		}
	}
	return smp
}

// newSample returns an empty sample, reusing a freed one if possible.
func (sp *Sampler) newSample() *frameSample {
	n := len(sp.free)
	if n == 0 {
		return &frameSample{}
	}
	smp := sp.free[n-1]
	sp.free[n-1] = nil
	sp.free = sp.free[:n-1]
	return smp
}

// freeSample empties a popped frame's sample, keeping its slot arrays, and
// puts it on the free list.
func (sp *Sampler) freeSample(smp *frameSample) {
	*smp = frameSample{rawSlots: smp.rawSlots[:0], slots: smp.slots[:0]}
	sp.free = append(sp.free, smp)
}

// convertRaw performs CONVERT-RAW-SAMPLE: extract frame content (find the
// method by PC, decode the slot layout, check each slot against the GC's
// valid-pointer test) from the stored raw snapshot.
func (sp *Sampler) convertRaw(smp *frameSample, stats *Stats) {
	for idx, ref := range smp.rawSlots {
		stats.SlotsExtracted++
		if ref != nil {
			smp.slots = append(smp.slots, slotEntry{idx: idx, ref: ref})
		}
	}
	smp.rawSlots = smp.rawSlots[:0]
	smp.raw = false
}

// compareByProbing implements COMPARE-BY-PROBING: probe each slot remaining
// in the old sample into the live frame; slots whose reference changed are
// removed, survivors accumulate invariance evidence.
func (sp *Sampler) compareByProbing(smp *frameSample, f *Frame, stats *Stats) {
	keep := smp.slots[:0]
	for _, e := range smp.slots {
		stats.SlotsCompared++
		var cur *heap.Object
		if e.idx < len(f.slots) {
			cur = f.slots[e.idx]
		}
		if cur != nil && cur == e.ref {
			e.survived++
			keep = append(keep, e)
		}
	}
	smp.slots = keep
	smp.compared++
}

// InvariantRef is one mined stack-invariant reference with its provenance.
type InvariantRef struct {
	Obj      *heap.Object
	Depth    int // frame depth (0 = bottom)
	Slot     int
	Survived int
}

// Invariants mines the current invariant set for st: references that
// survived at least minSurvived comparisons, ordered topmost-frame first
// (the resolution heuristic "always start from topmost stack-invariants
// because they tend to be more recent"). Duplicated objects are reported
// once, at their topmost occurrence.
func (sp *Sampler) Invariants(st *ThreadStack) []InvariantRef {
	var out []InvariantRef
	seen := make(map[*heap.Object]struct{})
	for i := st.Depth() - 1; i >= 0; i-- {
		f := st.frames[i]
		smp := sp.samples[f.inc]
		if smp == nil || smp.raw || smp.compared == 0 {
			continue
		}
		// Slots in stored order; sort by slot index for determinism.
		entries := append([]slotEntry(nil), smp.slots...)
		sort.Slice(entries, func(a, b int) bool { return entries[a].idx < entries[b].idx })
		for _, e := range entries {
			if e.survived < minSurvived {
				continue
			}
			if _, dup := seen[e.ref]; dup {
				continue
			}
			seen[e.ref] = struct{}{}
			out = append(out, InvariantRef{Obj: e.ref, Depth: f.depth, Slot: e.idx, Survived: e.survived})
		}
	}
	return out
}
