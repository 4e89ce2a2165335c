package balancer

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"jessica2/internal/tcm"
	"jessica2/internal/xrand"
)

// pairMap builds a TCM where threads 2k and 2k+1 share volume v.
func pairMap(n int, v float64) *tcm.Map {
	m := tcm.NewMap(n)
	for i := 0; i+1 < n; i += 2 {
		m.Set(i, i+1, v)
	}
	return m
}

// TestCrossLocalComplementary: CrossVolume sums exactly the pairs a
// placement splits across nodes and none of the collocated ones.
func TestCrossLocalComplementary(t *testing.T) {
	m := pairMap(8, 100)
	m.Add(0, 4, 7) // collocated under round-robin on 4 nodes
	a := roundRobin(8, 4)
	split := 0.0
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if a[i] != a[j] {
				split += m.At(i, j)
			}
		}
	}
	if got := CrossVolume(m, a); got != split || got != 400 {
		t.Fatalf("cross = %v, want the split pairs' %v (400)", got, split)
	}
}

func TestPlanReunitesPairs(t *testing.T) {
	m := pairMap(8, 100)
	// Round-robin splits every pair across 4 nodes.
	cur := roundRobin(8, 4)
	if CrossVolume(m, cur) == 0 {
		t.Fatal("test setup wrong: pairs should start split")
	}
	next, moves := Plan(m, cur, Config{Nodes: 4, MaxMoves: 16, MinGain: 1})
	if CrossVolume(m, next) != 0 {
		t.Fatalf("cross volume %v after planning, want 0", CrossVolume(m, next))
	}
	if len(moves) == 0 {
		t.Fatal("no moves planned")
	}
	// Load constraint: ceil(8/4)+1 = 3 max.
	for node, c := range next.Counts(4) {
		if c > 3 {
			t.Fatalf("node %d overloaded with %d threads", node, c)
		}
	}
}

func TestPlanRespectsMaxMoves(t *testing.T) {
	m := pairMap(16, 50)
	cur := roundRobin(16, 4)
	_, moves := Plan(m, cur, Config{Nodes: 4, MaxMoves: 2, MinGain: 1})
	if len(moves) > 2 {
		t.Fatalf("planned %d moves, cap was 2", len(moves))
	}
}

func TestPlanMinGainBlocksChurn(t *testing.T) {
	m := pairMap(4, 10)
	cur := roundRobin(4, 2)
	_, moves := Plan(m, cur, Config{Nodes: 2, MaxMoves: 8, MinGain: 1000})
	if len(moves) != 0 {
		t.Fatalf("moves planned below the gain threshold: %v", moves)
	}
}

func TestPlanNeverWorsens(t *testing.T) {
	m := pairMap(8, 100)
	m.Add(0, 2, 30)
	m.Add(1, 3, 20)
	cur := Blocked(8, 4)
	before := CrossVolume(m, cur)
	next, _ := Plan(m, cur, DefaultConfig(4))
	after := CrossVolume(m, next)
	if after > before {
		t.Fatalf("plan worsened cross volume: %v -> %v", before, after)
	}
}

func TestPlanDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatch did not panic")
		}
	}()
	Plan(tcm.NewMap(4), make(Assignment, 3), DefaultConfig(2))
}

func TestBlockedAndRoundRobin(t *testing.T) {
	b := Blocked(8, 4)
	want := Assignment{0, 0, 1, 1, 2, 2, 3, 3}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("blocked = %v", b)
		}
	}
	rr := roundRobin(8, 4)
	for i := range rr {
		if rr[i] != i%4 {
			t.Fatalf("round robin = %v", rr)
		}
	}
}

func TestBlockedUnevenClamps(t *testing.T) {
	b := Blocked(5, 2)
	for _, n := range b {
		if n < 0 || n >= 2 {
			t.Fatalf("out of range node: %v", b)
		}
	}
}

func TestAssignmentClone(t *testing.T) {
	a := Assignment{1, 2, 3}
	c := a.Clone()
	c[0] = 9
	if a[0] != 1 {
		t.Fatal("clone aliases")
	}
}

// Property: cross volume plus the collocated pairs' volume is the total
// under any assignment.
func TestQuickVolumeConservation(t *testing.T) {
	f := func(cells [6]uint8, placement [4]uint8) bool {
		m := tcm.NewMap(4)
		k := 0
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				m.Set(i, j, float64(cells[k]))
				k++
			}
		}
		a := make(Assignment, 4)
		for i := range a {
			a[i] = int(placement[i]) % 2
		}
		var total, local float64
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				total += m.At(i, j)
				if a[i] == a[j] {
					local += m.At(i, j)
				}
			}
		}
		return math.Abs(CrossVolume(m, a)+local-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Plan's result always satisfies the load constraint.
func TestQuickPlanLoadConstraint(t *testing.T) {
	f := func(cells [15]uint8) bool {
		m := tcm.NewMap(6)
		k := 0
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				m.Set(i, j, float64(cells[k]))
				k++
			}
		}
		cur := roundRobin(6, 3)
		next, _ := Plan(m, cur, Config{Nodes: 3, MaxMoves: 10, MinGain: 1})
		maxPer := 3 // ceil(6/3) + 1 slack
		for _, c := range next.Counts(3) {
			if c > maxPer {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHomeAwarePlan: the home-affinity term pulls a thread toward the node
// hosting its data even without peer-thread attraction — the §VI "home
// effect" extension.
func TestHomeAwarePlan(t *testing.T) {
	m := tcm.NewMap(4) // no thread-pair correlation at all
	aff := [][]float64{
		{0, 5000}, // thread 0's data homed on node 1
		{0, 0},
		{0, 0},
		{0, 0},
	}
	cur := Assignment{0, 0, 1, 1}
	next, moves := Plan(m, cur, Config{Nodes: 2, MaxMoves: 4, MinGain: 1,
		HomeAffinity: aff, HomeWeight: 1})
	if next[0] != 1 {
		t.Fatalf("thread 0 not pulled to its data's home: %v (moves %v)", next, moves)
	}
}

// TestHomeAwareThirdNodeCase: the paper's tricky case — a pair shares data
// homed at a third node. With the home term, the planner prefers moving
// both threads to the data's home over merely collocating them.
func TestHomeAwareThirdNodeCase(t *testing.T) {
	m := tcm.NewMap(2)
	m.Set(0, 1, 100) // the pair shares a little directly
	aff := [][]float64{
		{0, 0, 4000}, // but both threads' shared data is homed on node 2
		{0, 0, 4000},
	}
	cur := Assignment{0, 1}
	next, _ := Plan(m, cur, Config{Nodes: 3, MaxMoves: 4, MinGain: 1,
		HomeAffinity: aff, HomeWeight: 1})
	if next[0] != 2 || next[1] != 2 {
		t.Fatalf("pair not moved to the data home: %v", next)
	}
	// Without the home term they would just collocate anywhere.
	blind, _ := Plan(m, cur, Config{Nodes: 3, MaxMoves: 4, MinGain: 1})
	if blind[0] == 2 && blind[1] == 2 {
		t.Skip("blind plan coincidentally chose node 2")
	}
}

// TestPlannerMatchesPlan runs one Planner through a seeded sequence of
// random maps, placements and configs, with home affinity on and off and
// dimensions that grow and shrink its buffers. Each call must plan exactly
// what Plan plans, leave its input alone, and Plan's own results must not
// alias one another across calls.
func TestPlannerMatchesPlan(t *testing.T) {
	r := xrand.New(31)
	var p Planner
	// planned keeps one Plan result and copies made when it was returned.
	type planned struct {
		a, wantA         Assignment
		moves, wantMoves []Move
	}
	var earlier []planned
	moved := 0
	for i := 0; i < 300; i++ {
		threads, nodes := 1+r.Intn(12), 1+r.Intn(5)
		m := tcm.NewMap(threads)
		for a := 0; a < threads; a++ {
			for b := a + 1; b < threads; b++ {
				if r.Intn(3) > 0 {
					m.Set(a, b, float64(r.Intn(10_000)))
				}
			}
		}
		cur := make(Assignment, threads)
		for t := range cur {
			cur[t] = r.Intn(nodes)
		}
		cfg := Config{Nodes: nodes, MaxMoves: r.Intn(6), MinGain: float64(r.Intn(3) * 500)}
		if r.Intn(2) == 0 {
			cfg.HomeWeight = 0.5 + r.Float64()
			cfg.HomeAffinity = make([][]float64, threads)
			for t := range cfg.HomeAffinity {
				cfg.HomeAffinity[t] = make([]float64, nodes)
				for d := range cfg.HomeAffinity[t] {
					cfg.HomeAffinity[t][d] = float64(r.Intn(5_000))
				}
			}
		}
		input := cur.Clone()

		wantA, wantMoves := Plan(m, cur, cfg)
		gotA, gotMoves := p.Plan(m, cur, cfg)
		if !slices.Equal(gotA, wantA) || !slices.Equal(gotMoves, wantMoves) {
			t.Fatalf("case %d (%d threads, %d nodes, %+v): Planner %v %v, Plan %v %v",
				i, threads, nodes, cfg, gotA, gotMoves, wantA, wantMoves)
		}
		if !slices.Equal(cur, input) {
			t.Fatalf("case %d: planning rewrote its input %v to %v", i, input, cur)
		}
		earlier = append(earlier, planned{wantA, wantA.Clone(), wantMoves, slices.Clone(wantMoves)})
		if len(wantMoves) > 0 {
			moved++
		}
	}
	for i, e := range earlier {
		if !slices.Equal(e.a, e.wantA) || !slices.Equal(e.moves, e.wantMoves) {
			t.Fatalf("Plan's result from case %d changed to %v %v after later calls, want %v %v",
				i, e.a, e.moves, e.wantA, e.wantMoves)
		}
	}
	if moved < 100 {
		t.Fatalf("only %d of %d cases planned a move", moved, len(earlier))
	}
}

// roundRobin is the locality-oblivious baseline placement.
func roundRobin(threads, nodes int) Assignment {
	a := make(Assignment, threads)
	for i := range a {
		a[i] = i % nodes
	}
	return a
}
