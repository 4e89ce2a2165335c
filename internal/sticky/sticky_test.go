package sticky

import (
	"testing"

	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sim"
	"jessica2/internal/stack"
)

func TestFootprintBasics(t *testing.T) {
	f := Footprint{"A": 100, "B": 50}
	if f.Total() != 150 {
		t.Fatalf("total = %d", f.Total())
	}
	names := f.Classes()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("classes = %v", names)
	}
}

func TestFootprintDiff(t *testing.T) {
	a := Footprint{"A": 100, "B": 50}
	b := Footprint{"A": 80, "C": 10}
	// |100-80| + |50-0| + |0-10| = 80
	if d := a.Diff(b); d != 80 {
		t.Fatalf("diff = %d, want 80", d)
	}
	if d := b.Diff(a); d != 80 {
		t.Fatalf("diff not symmetric: %d", d)
	}
	if a.Diff(a) != 0 {
		t.Fatal("self diff nonzero")
	}
}

// footKernel runs a single-thread workload touching objects with known
// frequencies and returns the resulting footprinter.
func footKernel(t *testing.T, cfg FootprinterConfig, body func(th *gos.Thread, cls *heap.Class)) *Footprinter {
	t.Helper()
	kcfg := gos.DefaultConfig()
	kcfg.Nodes = 1
	k := gos.NewKernel(kcfg)
	cls := k.Reg.DefineClass("Rec", 128, 1)
	var fp *Footprinter
	th := k.SpawnThread(0, "t", func(th *gos.Thread) {
		body(th, cls)
	})
	fp = NewFootprinter(th, cfg)
	th.AddObserver(fp)
	k.Run()
	return fp
}

func TestFootprinterHotObjectsQualify(t *testing.T) {
	cfg := DefaultFootprinterConfig()
	cfg.Nonstop = true
	cfg.MinAccesses = 2
	cfg.RearmPeriod = sim.Millisecond
	fp := footKernel(t, cfg, func(th *gos.Thread, cls *heap.Class) {
		hot := th.Alloc(cls)
		cold := th.Alloc(cls)
		th.Write(hot)
		th.Write(cold)
		// Like Fig. 4: object A accessed frequently across the interval,
		// object B touched once.
		for i := 0; i < 20; i++ {
			th.Read(hot)
			th.Compute(2 * sim.Millisecond) // let re-arm sweeps fire
		}
		th.Release(1) // close the interval
	})
	foot := fp.LastInterval()
	// Only the hot object qualifies: 128 bytes at gap 1.
	if foot["Rec"] != 128 {
		t.Fatalf("footprint = %v, want Rec:128 (hot only)", foot)
	}
	if fp.TrackedAccesses < 2 {
		t.Fatalf("tracked = %d", fp.TrackedAccesses)
	}
	if fp.Sweeps == 0 {
		t.Fatal("no re-arm sweeps happened")
	}
}

func TestFootprinterSingleTouchExcluded(t *testing.T) {
	cfg := DefaultFootprinterConfig()
	cfg.Nonstop = true
	cfg.MinAccesses = 2
	fp := footKernel(t, cfg, func(th *gos.Thread, cls *heap.Class) {
		o := th.Alloc(cls)
		th.Write(o)
		th.Release(1)
		th.Read(o) // one touch in the second interval
		th.Release(2)
	})
	if got := fp.LastInterval()["Rec"]; got != 0 {
		t.Fatalf("single-touch object in footprint: %d bytes", got)
	}
}

func TestFootprinterGapScaleUp(t *testing.T) {
	cfg := DefaultFootprinterConfig()
	cfg.Nonstop = true
	cfg.MinAccesses = 1
	kcfg := gos.DefaultConfig()
	kcfg.Nodes = 1
	k := gos.NewKernel(kcfg)
	cls := k.Reg.DefineClass("Rec", 100, 0)
	cls.SetGap(8, 7) // 1/7 sampled
	var fp *Footprinter
	th := k.SpawnThread(0, "t", func(th *gos.Thread) {
		var objs []*heap.Object
		for i := 0; i < 70; i++ {
			o := th.Alloc(cls)
			th.Write(o)
			objs = append(objs, o)
		}
		for pass := 0; pass < 3; pass++ {
			for _, o := range objs {
				th.Read(o)
			}
			th.Compute(3 * sim.Millisecond)
		}
		th.Release(1)
	})
	fp = NewFootprinter(th, cfg)
	th.AddObserver(fp)
	k.Run()
	got := float64(fp.LastInterval()["Rec"])
	truth := 70.0 * 100
	if got < truth*0.6 || got > truth*1.4 {
		t.Fatalf("scaled footprint %v, truth %v", got, truth)
	}
}

func TestFootprinterTimerDutyCycle(t *testing.T) {
	runWith := func(nonstop bool) int64 {
		cfg := DefaultFootprinterConfig()
		cfg.Nonstop = nonstop
		cfg.OnPhase = 50 * sim.Millisecond
		cfg.OffPhase = 50 * sim.Millisecond
		cfg.MinAccesses = 1
		fp := footKernel(t, cfg, func(th *gos.Thread, cls *heap.Class) {
			o := th.Alloc(cls)
			th.Write(o)
			for i := 0; i < 100; i++ {
				th.Read(o)
				th.Compute(2 * sim.Millisecond)
			}
			th.Release(1)
		})
		return fp.TrackedAccesses
	}
	ns := runWith(true)
	timer := runWith(false)
	if timer >= ns {
		t.Fatalf("timer-gated tracking (%d) should trap less than nonstop (%d)", timer, ns)
	}
	if timer == 0 {
		t.Fatal("timer mode tracked nothing")
	}
}

func TestFootprinterEWMASmoothing(t *testing.T) {
	cfg := DefaultFootprinterConfig()
	cfg.Nonstop = true
	cfg.MinAccesses = 1
	cfg.EWMA = 0.5
	fp := footKernel(t, cfg, func(th *gos.Thread, cls *heap.Class) {
		o := th.Alloc(cls)
		th.Write(o)
		th.Read(o)
		th.Release(1) // interval 1: Rec appears
		th.Compute(time1)
		th.Release(2) // interval 2: empty -> decays
	})
	got := fp.Footprint()["Rec"]
	if got == 0 || got >= 128 {
		t.Fatalf("EWMA footprint = %d, want decayed in (0,128)", got)
	}
}

const time1 = 5 * sim.Millisecond

// --- resolution tests --------------------------------------------------------

// buildGraph creates a chain graph head -> o1 -> o2 ... with a branch.
func buildGraph(n int, gap int64) (invs []stack.InvariantRef, reg *heap.Registry, all []*heap.Object) {
	reg = heap.NewRegistry()
	c := reg.DefineClass("Rec", 100, 1)
	c.SetGap(gap, gap)
	var prev *heap.Object
	for i := 0; i < n; i++ {
		o := reg.Alloc(c, 0)
		if prev != nil {
			prev.Refs[0] = o
		}
		all = append(all, o)
		prev = o
	}
	invs = []stack.InvariantRef{{Obj: all[0], Depth: 0, Slot: 0, Survived: 2}}
	return invs, reg, all
}

func TestResolveSelectsWithinBudget(t *testing.T) {
	invs, _, _ := buildGraph(50, 1) // full sampling: every object a landmark
	foot := Footprint{"Rec": 2000}  // budget: 20 objects of 100 bytes
	res := Resolve(invs, foot, DefaultResolverConfig())
	if len(res.Objects) < 18 || len(res.Objects) > 22 {
		t.Fatalf("selected %d objects, want ~20 (budget 2000B)", len(res.Objects))
	}
	if res.Bytes != int64(len(res.Objects))*100 {
		t.Fatal("byte accounting wrong")
	}
	if res.Visited < len(res.Objects) {
		t.Fatal("visited < selected")
	}
	if res.Cost <= 0 {
		t.Fatal("no cost charged")
	}
}

func TestResolveEmptyFootprintSelectsNothing(t *testing.T) {
	invs, _, _ := buildGraph(10, 1)
	res := Resolve(invs, Footprint{}, DefaultResolverConfig())
	if len(res.Objects) != 0 {
		t.Fatalf("selected %d objects with empty footprint", len(res.Objects))
	}
}

func TestResolveNoInvariants(t *testing.T) {
	res := Resolve(nil, Footprint{"Rec": 1000}, DefaultResolverConfig())
	if res.Visited != 0 || len(res.Objects) != 0 {
		t.Fatal("resolution without entry points must do nothing")
	}
}

// TestResolveLandmarkDrought: with a sampling gap and no landmarks along a
// path, traversal stops after tolerance × gap objects of the class.
func TestResolveLandmarkDrought(t *testing.T) {
	// Gap 11: only seq 0, 11, 22... sampled. Build a chain where the
	// sampled objects stop early by re-tagging: easiest is a chain of 100
	// with gap 11 — landmarks appear every 11 nodes, so traversal should
	// proceed. Then a chain starting at seq 1 of length 9 (no landmark):
	// traversal stops after tolerance*gap.
	reg := heap.NewRegistry()
	c := reg.DefineClass("Rec", 100, 1)
	c.SetGap(11, 11)
	// Allocate 1 sampled head then 60 unsampled-only chain: seqs 0..60;
	// every 11th is sampled, so landmarks exist. Use tolerance 1.5.
	var prev *heap.Object
	var head *heap.Object
	for i := 0; i < 61; i++ {
		o := reg.Alloc(c, 0)
		if prev != nil {
			prev.Refs[0] = o
		} else {
			head = o
		}
		prev = o
	}
	invs := []stack.InvariantRef{{Obj: head}}
	cfg := DefaultResolverConfig()
	cfg.Tolerance = 1.5
	// Huge budget: traversal limited only by the graph and landmarks.
	res := Resolve(invs, Footprint{"Rec": 1 << 30}, cfg)
	if res.Visited != 61 {
		t.Fatalf("visited %d, want full chain (landmarks every 11)", res.Visited)
	}
	// Now sever landmarks: new chain where only the head is sampled.
	reg2 := heap.NewRegistry()
	c2 := reg2.DefineClass("Rec", 100, 1)
	c2.SetGap(11, 11)
	var objs []*heap.Object
	for i := 0; i < 40; i++ {
		objs = append(objs, reg2.Alloc(c2, 0))
	}
	// Chain starting at seq 1 (unsampled onwards up to seq 10, 12..21...).
	// Link only unsampled ones: 1,2,...,10, 12,13...
	var chain []*heap.Object
	for _, o := range objs {
		if o.Seq%11 != 0 {
			chain = append(chain, o)
		}
	}
	for i := 0; i+1 < len(chain); i++ {
		chain[i].Refs[0] = chain[i+1]
	}
	res2 := Resolve([]stack.InvariantRef{{Obj: chain[0]}}, Footprint{"Rec": 1 << 30}, cfg)
	maxVisited := int(cfg.Tolerance*11) + 2
	if res2.Visited > maxVisited {
		t.Fatalf("visited %d without landmarks, want <= %d (t×gap stop)", res2.Visited, maxVisited)
	}
}

// TestResolveMultipleRoots: when one invariant's path is exhausted, the
// resolver switches to the next.
func TestResolveMultipleRoots(t *testing.T) {
	reg := heap.NewRegistry()
	c := reg.DefineClass("Rec", 100, 1)
	c.SetGap(1, 1)
	a := reg.Alloc(c, 0)
	b := reg.Alloc(c, 0)
	a2 := reg.Alloc(c, 0)
	b2 := reg.Alloc(c, 0)
	a.Refs[0] = a2
	b.Refs[0] = b2
	invs := []stack.InvariantRef{{Obj: a}, {Obj: b}}
	res := Resolve(invs, Footprint{"Rec": 400}, DefaultResolverConfig())
	if len(res.Objects) != 4 {
		t.Fatalf("selected %d, want all 4 across two roots", len(res.Objects))
	}
}

// TestResolvePerClassBudgets: classes resolve independently.
func TestResolvePerClassBudgets(t *testing.T) {
	reg := heap.NewRegistry()
	recC := reg.DefineClass("Rec", 100, 2)
	valC := reg.DefineClass("Val", 10, 0)
	recC.SetGap(1, 1)
	valC.SetGap(1, 1)
	root := reg.Alloc(recC, 0)
	child := reg.Alloc(recC, 0)
	v1 := reg.Alloc(valC, 0)
	v2 := reg.Alloc(valC, 0)
	root.Refs[0] = v1
	root.Refs[1] = child
	child.Refs[0] = v2
	res := Resolve([]stack.InvariantRef{{Obj: root}},
		Footprint{"Rec": 200, "Val": 10}, DefaultResolverConfig())
	if res.PerClass["Rec"] != 200 {
		t.Fatalf("Rec selected %d, want 200", res.PerClass["Rec"])
	}
	if res.PerClass["Val"] != 10 {
		t.Fatalf("Val selected %d, want 10 (budget hit)", res.PerClass["Val"])
	}
}

func TestResolveDedupAndCycles(t *testing.T) {
	reg := heap.NewRegistry()
	c := reg.DefineClass("Rec", 100, 1)
	c.SetGap(1, 1)
	a := reg.Alloc(c, 0)
	b := reg.Alloc(c, 0)
	a.Refs[0] = b
	b.Refs[0] = a // cycle
	res := Resolve([]stack.InvariantRef{{Obj: a}, {Obj: a}},
		Footprint{"Rec": 10000}, DefaultResolverConfig())
	if res.Visited != 2 {
		t.Fatalf("cycle visited %d, want 2", res.Visited)
	}
}

func TestResolveMaxObjectsCap(t *testing.T) {
	invs, _, _ := buildGraph(100, 1)
	cfg := DefaultResolverConfig()
	cfg.MaxObjects = 10
	res := Resolve(invs, Footprint{"Rec": 1 << 30}, cfg)
	if res.Visited > 10 {
		t.Fatalf("visited %d beyond cap", res.Visited)
	}
}

func TestFootprintIntoReusesMap(t *testing.T) {
	fp := NewFootprinter(nil, FootprinterConfig{MinAccesses: 1, EWMA: 1, MinGap: 1})
	fp.footprint = map[string]int64{"Rec": 128, "Cold": 0}
	dst := Footprint{"Stale": 999}
	got := fp.FootprintInto(dst)
	if got["Stale"] != 0 || got["Cold"] != 0 || got["Rec"] != 128 {
		t.Fatalf("scratch not rebuilt: %v", got)
	}
	got["Probe"] = 1
	if dst["Probe"] != 1 {
		t.Fatal("FootprintInto must reuse the passed map")
	}
	if fresh := fp.FootprintInto(nil); fresh["Rec"] != 128 {
		t.Fatalf("nil dst must allocate the footprint, got %v", fresh)
	}
}
