package xrand

import "testing"

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between adjacent seeds", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Derive(1)
	b := parent.Derive(2)
	if a.Uint64() == b.Uint64() {
		t.Fatal("derived streams collide immediately")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestZipfRanksInRange(t *testing.T) {
	r := New(17)
	z := NewZipf(r, 1.2, 100)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		k := z.Rank()
		if k < 0 || k >= 100 {
			t.Fatalf("rank out of range: %d", k)
		}
		counts[k]++
	}
	// Head must be hotter than tail.
	head := counts[0] + counts[1] + counts[2]
	tail := counts[97] + counts[98] + counts[99]
	if head <= tail {
		t.Fatalf("zipf not skewed: head %d tail %d", head, tail)
	}
}
