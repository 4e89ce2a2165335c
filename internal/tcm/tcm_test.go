package tcm

import (
	"math"
	"testing"
	"testing/quick"

	"jessica2/internal/oal"
)

func TestMapSymmetry(t *testing.T) {
	m := NewMap(4)
	m.Add(1, 2, 100)
	if m.At(1, 2) != 100 || m.At(2, 1) != 100 {
		t.Fatal("Add not symmetric")
	}
	m.Set(0, 3, 7)
	if m.At(3, 0) != 7 {
		t.Fatal("Set not symmetric")
	}
}

func TestMapDiagonalIgnored(t *testing.T) {
	m := NewMap(3)
	m.Add(1, 1, 50)
	m.Set(2, 2, 50)
	if m.Total() != 0 {
		t.Fatal("diagonal writes must be ignored")
	}
}

func TestMapTotalAndMax(t *testing.T) {
	m := NewMap(3)
	m.Add(0, 1, 10)
	m.Add(1, 2, 30)
	if m.Total() != 80 { // symmetric double count
		t.Fatalf("total = %v", m.Total())
	}
	if m.MaxCell() != 30 {
		t.Fatalf("max = %v", m.MaxCell())
	}
}

func TestCloneAndScale(t *testing.T) {
	m := NewMap(2)
	m.Add(0, 1, 5)
	c := m.Clone().Scale(3)
	if c.At(0, 1) != 15 || m.At(0, 1) != 5 {
		t.Fatal("clone/scale broken")
	}
}

func TestDistanceIdentity(t *testing.T) {
	m := NewMap(4)
	m.Add(0, 1, 10)
	m.Add(2, 3, 20)
	if DistanceEUC(m, m) != 0 || DistanceABS(m, m) != 0 {
		t.Fatal("distance to self must be 0")
	}
}

func TestDistanceKnownValues(t *testing.T) {
	a := NewMap(2)
	b := NewMap(2)
	a.Set(0, 1, 8)
	b.Set(0, 1, 10)
	// ABS: |8-10|*2 / (10*2) = 0.2
	if d := DistanceABS(a, b); math.Abs(d-0.2) > 1e-12 {
		t.Fatalf("ABS = %v, want 0.2", d)
	}
	// EUC: sqrt(2*4)/sqrt(2*100) = 2/10 = 0.2
	if d := DistanceEUC(a, b); math.Abs(d-0.2) > 1e-12 {
		t.Fatalf("EUC = %v, want 0.2", d)
	}
}

func TestDistanceEmptyReference(t *testing.T) {
	a := NewMap(2)
	b := NewMap(2)
	if DistanceABS(a, b) != 0 {
		t.Fatal("two empty maps must be distance 0")
	}
	a.Set(0, 1, 5)
	if !math.IsInf(DistanceABS(a, b), 1) {
		t.Fatal("non-empty vs empty reference must be +Inf")
	}
}

func TestDistanceDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch did not panic")
		}
	}()
	DistanceABS(NewMap(2), NewMap(3))
}

func TestAccuracyClamp(t *testing.T) {
	if Accuracy(0.05) != 0.95 {
		t.Fatal("accuracy math wrong")
	}
	if Accuracy(1.7) != 0 {
		t.Fatal("accuracy must clamp at 0")
	}
}

// Property: ABS distance is scale-invariant: D(cA, cB) = D(A, B).
func TestQuickDistanceScaleInvariance(t *testing.T) {
	f := func(vals [6]uint8, c uint8) bool {
		scale := float64(c%9) + 1
		a, b := NewMap(3), NewMap(3)
		a.Set(0, 1, float64(vals[0]))
		a.Set(0, 2, float64(vals[1]))
		a.Set(1, 2, float64(vals[2]))
		b.Set(0, 1, float64(vals[3])+1)
		b.Set(0, 2, float64(vals[4])+1)
		b.Set(1, 2, float64(vals[5])+1)
		d1 := DistanceABS(a, b)
		d2 := DistanceABS(a.Clone().Scale(scale), b.Clone().Scale(scale))
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: identical maps have accuracy 1 under both metrics; the
// triangle-ish bound D(a,b) >= 0 always holds.
func TestQuickDistanceNonNegative(t *testing.T) {
	f := func(vals [3]uint8, ref [3]uint8) bool {
		a, b := NewMap(3), NewMap(3)
		a.Set(0, 1, float64(vals[0]))
		a.Set(0, 2, float64(vals[1]))
		a.Set(1, 2, float64(vals[2]))
		b.Set(0, 1, float64(ref[0])+1)
		b.Set(0, 2, float64(ref[1])+1)
		b.Set(1, 2, float64(ref[2])+1)
		return DistanceABS(a, b) >= 0 && DistanceEUC(a, b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPairAccrual(t *testing.T) {
	b := NewBuilder(3)
	// Object 1 (100 bytes) touched by threads 0 and 1.
	// Object 2 (50 bytes) touched by all three.
	b.AddAccess(0, 1, 100)
	b.AddAccess(1, 1, 100)
	b.AddAccess(0, 2, 50)
	b.AddAccess(1, 2, 50)
	b.AddAccess(2, 2, 50)
	m, cost := b.Build()
	if m.At(0, 1) != 150 {
		t.Fatalf("TCM[0][1] = %v, want 150", m.At(0, 1))
	}
	if m.At(0, 2) != 50 || m.At(1, 2) != 50 {
		t.Fatal("three-way object must accrue to all pairs")
	}
	if cost.Objects != 2 {
		t.Fatalf("M = %d, want 2", cost.Objects)
	}
	if cost.PairAdds != 1+3 {
		t.Fatalf("pair adds = %d, want 4", cost.PairAdds)
	}
}

func TestBuilderSingleThreadObjectsIgnored(t *testing.T) {
	b := NewBuilder(2)
	b.AddAccess(0, 1, 100)
	m, _ := b.Build()
	if m.Total() != 0 {
		t.Fatal("objects accessed by one thread must not correlate")
	}
}

func TestBuilderLargerWeightWins(t *testing.T) {
	b := NewBuilder(2)
	b.AddAccess(0, 1, 40)
	b.AddAccess(1, 1, 90) // re-logged at a finer gap: bigger estimate
	m, _ := b.Build()
	if m.At(0, 1) != 90 {
		t.Fatalf("weight = %v, want 90 (upgrade)", m.At(0, 1))
	}
}

func TestBuilderIngestRecord(t *testing.T) {
	b := NewBuilder(2)
	rec := &oal.Record{Thread: 0, Entries: []oal.Entry{{Obj: 7, Bytes: 64}}}
	rec2 := &oal.Record{Thread: 1, Entries: []oal.Entry{{Obj: 7, Bytes: 64}}}
	b.IngestRecord(rec)
	b.IngestRecord(rec2)
	m, cost := b.Build()
	if m.At(0, 1) != 64 {
		t.Fatalf("TCM[0][1] = %v", m.At(0, 1))
	}
	if cost.Records != 2 || cost.Entries != 2 {
		t.Fatalf("cost = %+v", cost)
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(2)
	b.AddAccess(0, 1, 10)
	b.AddAccess(1, 1, 10)
	b.Reset()
	m, cost := b.Build()
	if m.Total() != 0 || cost.Objects != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestBuilderDeterminism(t *testing.T) {
	build := func() *Map {
		b := NewBuilder(8)
		for o := int64(0); o < 100; o++ {
			for th := 0; th < 8; th++ {
				if (o+int64(th))%3 == 0 {
					b.AddAccess(th, o, float64(10+o))
				}
			}
		}
		m, _ := b.Build()
		return m
	}
	a, b := build(), build()
	if DistanceABS(a, b) != 0 {
		t.Fatal("builder not deterministic")
	}
}

func TestStringHeatmap(t *testing.T) {
	m := NewMap(2)
	m.Set(0, 1, 100)
	s := m.String()
	if len(s) == 0 {
		t.Fatal("empty rendering")
	}
	// 2x2 grid + newlines.
	if len(s) != 2*3 {
		t.Fatalf("rendering size %d", len(s))
	}
}

func TestOALWireBytes(t *testing.T) {
	r := &oal.Record{Thread: 1, Entries: make([]oal.Entry, 10)}
	if r.WireBytes() != 24+80 {
		t.Fatalf("wire bytes = %d", r.WireBytes())
	}
}

func TestPeekIntoReusesScratchAndMatchesPeek(t *testing.T) {
	b := NewBuilder(4)
	b.AddAccess(0, 10, 100)
	b.AddAccess(1, 10, 100)
	b.AddAccess(2, 20, 50)
	b.AddAccess(3, 20, 50)

	fresh := b.Peek()
	dst := b.PeekInto(nil)
	if DistanceABS(fresh, dst) != 0 {
		t.Fatal("PeekInto(nil) differs from Peek")
	}
	// More state arrives; the same scratch must be rebuilt in place.
	b.AddAccess(0, 20, 50)
	again := b.PeekInto(dst)
	if again != dst {
		t.Fatalf("PeekInto reallocated: %p -> %p", dst, again)
	}
	if DistanceABS(again, b.Peek()) != 0 {
		t.Fatal("reused scratch differs from a fresh Peek")
	}
	// Peeks never perturb the charged ledger.
	_, cost := b.Build()
	if cost.Objects != 2 || cost.PairAdds != 4 {
		t.Fatalf("cost after peeks: %+v", cost)
	}
}

func TestMapReuse(t *testing.T) {
	m := NewMap(3)
	m.Set(0, 2, 9)
	if r := m.Reuse(3); r != m || r.At(0, 2) != 0 {
		t.Fatal("Reuse(3) must zero in place")
	}
	if r := m.Reuse(2); r != m || r.N() != 2 {
		t.Fatal("shrinking Reuse must recycle the backing array")
	}
	if r := m.Reuse(8); r != m || r.N() != 8 || r.At(7, 0) != 0 {
		t.Fatal("growing Reuse must resize to a zero map")
	}
	if r := (*Map)(nil).Reuse(2); r == nil || r.N() != 2 {
		t.Fatal("nil Reuse must allocate")
	}
}
