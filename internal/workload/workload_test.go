package workload

import (
	"runtime"
	"slices"
	"testing"

	"jessica2/internal/gos"
	"jessica2/internal/sim"
	"jessica2/internal/tcm"
)

// runTCM launches a workload with exact tracking and returns its TCM.
func runTCM(t *testing.T, w Workload, threads, nodes int, seed uint64) (*tcm.Map, *gos.Kernel) {
	t.Helper()
	cfg := gos.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Tracking = gos.TrackingExact
	k := gos.NewKernel(cfg)
	w.Launch(k, Params{Threads: threads, Seed: seed})
	k.Run()
	k.FlushAllOAL()
	m, _ := k.TCM()
	return m, k
}

func TestBlockRange(t *testing.T) {
	lo, hi := blockRange(10, 3, 0)
	if lo != 0 || hi != 4 {
		t.Fatalf("part 0 = [%d,%d)", lo, hi)
	}
	total := 0
	for i := 0; i < 3; i++ {
		lo, hi := blockRange(10, 3, i)
		total += hi - lo
	}
	if total != 10 {
		t.Fatal("block ranges do not cover")
	}
}

func TestPlacementDefaults(t *testing.T) {
	p := Params{Threads: 8}
	a := p.placement(4)
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("placement = %v", a)
		}
	}
}

func TestPlacementMismatchPanics(t *testing.T) {
	p := Params{Threads: 4, Placement: []int{0, 1}}
	defer func() {
		if recover() == nil {
			t.Error("bad placement did not panic")
		}
	}()
	p.placement(2)
}

// TestSORNearNeighborBand: SOR's TCM must be a near-neighbour band —
// adjacent threads share boundary rows, distant threads share nothing.
func TestSORNearNeighborBand(t *testing.T) {
	s := NewSOR()
	s.RowsN, s.Cols, s.Iters = 128, 128, 2
	s.PointCost = 100 * sim.Nanosecond
	m, _ := runTCM(t, s, 8, 4, 1)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			v := m.At(i, j)
			if j == i+1 && v == 0 {
				t.Fatalf("adjacent threads %d,%d share nothing", i, j)
			}
			if j > i+1 && v != 0 {
				t.Fatalf("distant threads %d,%d share %v", i, j, v)
			}
		}
	}
}

// TestBarnesHutGalaxyBlocks: intra-galaxy correlation must dominate
// inter-galaxy correlation (the Fig. 1 structure).
func TestBarnesHutGalaxyBlocks(t *testing.T) {
	b := NewBarnesHut()
	b.NBodies, b.Rounds = 512, 2
	m, _ := runTCM(t, b, 8, 4, 2)
	half := 4
	var intra, inter float64
	var intraN, interN int
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if (i < half) == (j < half) {
				intra += m.At(i, j)
				intraN++
			} else {
				inter += m.At(i, j)
				interN++
			}
		}
	}
	if intra/float64(intraN) <= inter/float64(interN) {
		t.Fatalf("no galaxy structure: intra %v vs inter %v", intra/float64(intraN), inter/float64(interN))
	}
}

// TestBarnesHutEnergySanity: the N-body integration must stay finite.
func TestBarnesHutPhysicsFinite(t *testing.T) {
	b := NewBarnesHut()
	b.NBodies, b.Rounds = 256, 3
	cfg := gos.DefaultConfig()
	cfg.Nodes = 2
	k := gos.NewKernel(cfg)
	b.Launch(k, Params{Threads: 2, Seed: 3})
	k.Run()
	for _, bd := range b.bodies {
		if bd == nil {
			t.Fatal("body not initialized")
		}
		if !finite(bd.x) || !finite(bd.vx) || !finite(bd.ax) {
			t.Fatalf("non-finite body state: %+v", bd)
		}
	}
	if len(b.VisitsPerRound) != b.Rounds {
		t.Fatalf("visit telemetry rounds = %d", len(b.VisitsPerRound))
	}
	for _, v := range b.VisitsPerRound {
		if v <= 0 {
			t.Fatal("no traversal visits recorded")
		}
	}
}

func finite(v float64) bool { return v == v && v < 1e30 && v > -1e30 }

// TestBarnesHutVisitsPinned: thread 0's traversal visits per round on a
// small model, as recorded when every cell and leaf list was an object of
// its own. Two leaves handed the same body list, or a list that overran
// into its neighbour's, would move bodies between leaves and change the
// counts.
func TestBarnesHutVisitsPinned(t *testing.T) {
	want := map[uint64][]int64{
		42: {20990, 20990, 20607},
		7:  {21203, 21203, 20779},
	}
	for seed, visits := range want {
		b := NewBarnesHut()
		b.NBodies, b.Rounds = 512, 3
		cfg := gos.DefaultConfig()
		cfg.Nodes = 4
		k := gos.NewKernel(cfg)
		b.Launch(k, Params{Threads: 8, Seed: seed})
		k.Run()
		if !slices.Equal(b.VisitsPerRound, visits) {
			t.Errorf("seed %d: VisitsPerRound = %#v, want %#v", seed, b.VisitsPerRound, visits)
		}
	}
}

// TestBarnesHutAllocatesPerRun: with tracking off, each extra round of a
// 1,024-body model on 8 threads and 8 nodes may allocate at most a quarter
// of an object per body. Cells and leaf lists come from run-long arenas;
// a cell and a list grown by append for every leaf cost about two
// allocations per body per round.
func TestBarnesHutAllocatesPerRun(t *testing.T) {
	const nBodies = 1024
	mallocs := func(rounds int) uint64 {
		b := NewBarnesHut()
		b.NBodies, b.Rounds = nBodies, rounds
		k := gos.NewKernel(gos.DefaultConfig())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.Launch(k, Params{Threads: 8, Seed: 42})
		k.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	one, four := mallocs(1), mallocs(4)
	perBodyRound := (float64(four) - float64(one)) / (3 * nBodies)
	if perBodyRound > 0.25 {
		t.Fatalf("%.2f allocations per body per extra round (%d at 1 round, %d at 4), want at most 0.25",
			perBodyRound, one, four)
	}
}

// TestWaterNeighborhoodSharing: threads owning adjacent box regions share;
// the TCM must be non-trivial but sparser than all-to-all.
func TestWaterNeighborhoodSharing(t *testing.T) {
	w := NewWaterSpatial()
	w.NMol, w.Rounds = 256, 2
	w.PairCost = 1 * sim.Microsecond
	m, k := runTCM(t, w, 8, 4, 4)
	if m.Total() == 0 {
		t.Fatal("no sharing at all")
	}
	if k.Stats().LockAcquires == 0 {
		t.Fatal("no box-move lock traffic (evolving distribution missing)")
	}
	// Adjacent-region threads share more than the most distant pair.
	if m.At(0, 1) == 0 {
		t.Fatal("adjacent box regions share nothing")
	}
}

// TestWaterMoleculeConservation: box lists always hold exactly NMol
// molecules in total.
func TestWaterMoleculeConservation(t *testing.T) {
	w := NewWaterSpatial()
	w.NMol, w.Rounds = 128, 3
	w.PairCost = 1 * sim.Microsecond
	cfg := gos.DefaultConfig()
	cfg.Nodes = 4
	k := gos.NewKernel(cfg)
	w.Launch(k, Params{Threads: 4, Seed: 5})
	k.Run()
	total := 0
	for _, bx := range w.boxes {
		total += len(bx.mols)
		if len(bx.list.Refs) != len(bx.mols) {
			t.Fatal("box list refs out of sync with membership")
		}
	}
	if total != 128 {
		t.Fatalf("molecules = %d, want 128", total)
	}
}

func TestNeighbors27(t *testing.T) {
	// Interior box in a 4³ grid has 27 neighbours; corner has 8.
	interior := neighbors27((1*4+1)*4+1, 4)
	if len(interior) != 27 {
		t.Fatalf("interior neighbours = %d", len(interior))
	}
	corner := neighbors27(0, 4)
	if len(corner) != 8 {
		t.Fatalf("corner neighbours = %d", len(corner))
	}
	// Self always included.
	found := false
	for _, n := range corner {
		if n == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("self missing from neighbourhood")
	}
}

func TestSyntheticPatterns(t *testing.T) {
	for _, pat := range []SharingPattern{PatternUniform, PatternNeighbor, PatternBlocks, PatternZipf} {
		pat := pat
		t.Run(pat.String(), func(t *testing.T) {
			s := NewSynthetic()
			s.Pattern = pat
			s.Intervals = 3
			s.AccessesPerInterval = 512
			m, _ := runTCM(t, s, 4, 2, 6)
			if m.Total() == 0 {
				t.Fatal("no sharing generated")
			}
		})
	}
}

func TestSyntheticBlocksIsolation(t *testing.T) {
	s := NewSynthetic()
	s.Pattern = PatternBlocks
	s.Intervals = 4
	s.AccessesPerInterval = 1024
	m, _ := runTCM(t, s, 8, 4, 7)
	// No cross-group sharing.
	for i := 0; i < 4; i++ {
		for j := 4; j < 8; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("groups leak: TCM[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
	if m.At(0, 1) == 0 {
		t.Fatal("intra-group sharing missing")
	}
}

// TestWorkloadDeterminism: identical seeds give identical runs; different
// seeds differ.
func TestWorkloadDeterminism(t *testing.T) {
	run := func(seed uint64) sim.Time {
		b := NewBarnesHut()
		b.NBodies, b.Rounds = 256, 2
		cfg := gos.DefaultConfig()
		cfg.Nodes = 4
		cfg.Tracking = gos.TrackingSampled
		k := gos.NewKernel(cfg)
		b.Launch(k, Params{Threads: 4, Seed: seed})
		return k.Run()
	}
	if run(42) != run(42) {
		t.Fatal("same seed diverged")
	}
	if run(42) == run(43) {
		t.Fatal("different seeds identical (suspicious)")
	}
}

func TestCharacteristicsTableI(t *testing.T) {
	cases := []struct {
		w    Workload
		gran string
	}{
		{NewSOR(), "Coarse"},
		{NewBarnesHut(), "Fine"},
		{NewWaterSpatial(), "Medium"},
	}
	for _, c := range cases {
		ch := c.w.Characteristics()
		if ch.Granularity != c.gran {
			t.Errorf("%s granularity = %s, want %s", ch.Name, ch.Granularity, c.gran)
		}
		if ch.Rounds <= 0 || ch.DataSet == "" || ch.ObjectSize == "" {
			t.Errorf("incomplete characteristics: %+v", ch)
		}
	}
}

// TestSORGOSVolumeIsBoundaryOnly: SOR's data traffic is only the
// block-boundary rows (writes are home-local, so no diffs).
func TestSORGOSVolume(t *testing.T) {
	s := NewSOR()
	s.RowsN, s.Cols, s.Iters = 64, 256, 2
	s.PointCost = 100 * sim.Nanosecond
	cfg := gos.DefaultConfig()
	cfg.Nodes = 4
	k := gos.NewKernel(cfg)
	s.Launch(k, Params{Threads: 4, Seed: 1})
	k.Run()
	if k.Stats().DiffMessages != 0 {
		t.Fatalf("SOR produced %d diffs; writes are home-local", k.Stats().DiffMessages)
	}
	if k.Stats().Faults == 0 {
		t.Fatal("no boundary-row faults")
	}
}
