package heap

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func newReg() *Registry { return NewRegistry() }

func TestDefineClassBasics(t *testing.T) {
	r := newReg()
	c := r.DefineClass("Body", 56, 3)
	if c.ID != 0 || c.Name != "Body" || c.Size != 56 || c.NumRefFields != 3 {
		t.Fatalf("bad class: %+v", c)
	}
	if c.IsArray {
		t.Fatal("scalar class marked array")
	}
	if r.Class("Body") != c {
		t.Fatal("lookup failed")
	}
	if r.Class("nope") != nil {
		t.Fatal("phantom class")
	}
}

func TestDefineDuplicatePanics(t *testing.T) {
	r := newReg()
	r.DefineClass("X", 8, 0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate class did not panic")
		}
	}()
	r.DefineClass("X", 16, 0)
}

func TestDefineBadSizesPanic(t *testing.T) {
	r := newReg()
	for _, f := range []func(){
		func() { r.DefineClass("a", 0, 0) },
		func() { r.DefineArrayClass("b", 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad size did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSequenceNumbersScalar(t *testing.T) {
	r := newReg()
	c := r.DefineClass("X", 8, 0)
	for i := int64(0); i < 5; i++ {
		o := r.Alloc(c, 0)
		if o.Seq != i {
			t.Fatalf("seq = %d, want %d", o.Seq, i)
		}
	}
}

func TestSequenceNumbersArrayContinuous(t *testing.T) {
	r := newReg()
	c := r.DefineArrayClass("A", 4)
	a := r.AllocArray(c, 4, 0)
	b := r.AllocArray(c, 5, 0)
	d := r.AllocArray(c, 3, 0)
	if a.Seq != 0 || b.Seq != 4 || d.Seq != 9 {
		t.Fatalf("starts = %d,%d,%d, want 0,4,9 (paper Fig. 3b)", a.Seq, b.Seq, d.Seq)
	}
}

func TestAllocWrongKindPanics(t *testing.T) {
	r := newReg()
	s := r.DefineClass("S", 8, 0)
	a := r.DefineArrayClass("A", 4)
	for _, f := range []func(){
		func() { r.Alloc(a, 0) },
		func() { r.AllocArray(s, 3, 0) },
		func() { r.AllocArray(a, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("mismatched alloc did not panic")
				}
			}()
			f()
		}()
	}
}

// TestObjectSizeFitsInt32: an object of more than math.MaxInt32 bytes
// panics at allocation and takes no ID; one of exactly that size does not.
func TestObjectSizeFitsInt32(t *testing.T) {
	r := newReg()
	a := r.DefineArrayClass("A", 8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an array past the int32 object size did not panic")
			}
		}()
		r.AllocArray(a, math.MaxInt32/8+1, 0)
	}()
	if o := r.AllocArray(r.DefineArrayClass("B", 1), math.MaxInt32, 0); o.ID != 1 || o.Bytes() != math.MaxInt32 {
		t.Fatalf("largest array: id %d, %d bytes", o.ID, o.Bytes())
	}
}

func TestBytesAndPages(t *testing.T) {
	r := newReg()
	c := r.DefineArrayClass("double[]", 8)
	row := r.AllocArray(c, 2048, 0) // 16 KB
	if row.Bytes() != 16384 {
		t.Fatalf("bytes = %d", row.Bytes())
	}
	first, last := row.PageSpan()
	if last-first < 3 {
		t.Fatalf("16KB object spans %d pages, want >= 4", last-first+1)
	}
	s := r.DefineClass("small", 32, 0)
	a := r.Alloc(s, 1)
	b := r.Alloc(s, 1)
	if a.Addr/PageSize != b.Addr/PageSize {
		t.Fatalf("two 32B objects on different pages: %d vs %d", a.Addr/PageSize, b.Addr/PageSize)
	}
}

func TestAddressAlignment(t *testing.T) {
	r := newReg()
	c := r.DefineClass("odd", 13, 0)
	for i := 0; i < 10; i++ {
		o := r.Alloc(c, 0)
		if o.Addr%WordSize != 0 {
			t.Fatalf("unaligned addr %d", o.Addr)
		}
	}
}

func TestHomeAssignment(t *testing.T) {
	r := newReg()
	c := r.DefineClass("X", 8, 0)
	o1 := r.Alloc(c, 3)
	o2 := r.Alloc(c, 5)
	if o1.Home != 3 || o2.Home != 5 {
		t.Fatal("home not the creating node")
	}
	if r.nodeBrk[3] == 0 || r.nodeBrk[5] == 0 || r.nodeBrk[7] != 0 {
		t.Fatal("per-node heap accounting wrong")
	}
}

func bruteSampledElems(start int64, n int, gap int64) int {
	count := 0
	for i := int64(0); i < int64(n); i++ {
		if (start+i)%gap == 0 {
			count++
		}
	}
	return count
}

func TestSampledElemsKnown(t *testing.T) {
	// Fig. 3(b): arrays of len 4, 5, 3 starting at seq 1, 5, 10.
	cases := []struct {
		start int64
		n     int
		gap   int64
		want  int
	}{
		{1, 4, 3, 1},
		{5, 5, 3, 2},
		{10, 3, 3, 1},
		{1, 4, 5, 0},
		{5, 5, 5, 1},
		{10, 3, 5, 1},
		{1, 4, 7, 0},
		{5, 5, 7, 1},
		{10, 3, 7, 0},
		{0, 10, 1, 10},
		{0, 0, 3, 0},
	}
	for _, c := range cases {
		if got := SampledElems(c.start, c.n, c.gap); got != c.want {
			t.Errorf("SampledElems(%d,%d,%d) = %d, want %d", c.start, c.n, c.gap, got, c.want)
		}
	}
}

// Property: SampledElems matches brute-force counting.
func TestQuickSampledElems(t *testing.T) {
	f := func(start uint16, n uint8, gap uint8) bool {
		g := int64(gap%64) + 1
		s := int64(start)
		nn := int(n % 100)
		return SampledElems(s, nn, g) == bruteSampledElems(s, nn, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSampledPredicate(t *testing.T) {
	r := newReg()
	c := r.DefineClass("X", 8, 0)
	c.SetGap(5)
	var sampled int
	for i := 0; i < 100; i++ {
		o := r.Alloc(c, 0)
		if o.Sampled() {
			sampled++
			if o.Seq%5 != 0 {
				t.Fatalf("object seq %d sampled at gap 5", o.Seq)
			}
		}
	}
	if sampled != 20 {
		t.Fatalf("sampled %d of 100 at gap 5, want 20", sampled)
	}
}

func TestArraySampledIfAnyElement(t *testing.T) {
	r := newReg()
	c := r.DefineArrayClass("A", 4)
	c.SetGap(7)
	// len 10 > gap 7: always sampled.
	big := r.AllocArray(c, 10, 0)
	if !big.Sampled() {
		t.Fatal("array longer than gap not sampled")
	}
	// Tiny arrays: sampled iff one of their seqs divides.
	anySampled, anyUnsampled := false, false
	for i := 0; i < 30; i++ {
		a := r.AllocArray(c, 2, 0)
		if a.Sampled() {
			anySampled = true
		} else {
			anyUnsampled = true
		}
	}
	if !anySampled || !anyUnsampled {
		t.Fatal("short arrays should be mixed at gap 7")
	}
}

func TestAmortizedBytes(t *testing.T) {
	r := newReg()
	a := r.DefineArrayClass("A", 8)
	a.SetGap(5)
	arr := r.AllocArray(a, 20, 0) // seqs 0..19, gap 5 -> 4 sampled elems
	if got := arr.AmortizedBytes(); got != 4*8 {
		t.Fatalf("amortized = %d, want 32", got)
	}
	s := r.DefineClass("S", 56, 0)
	s.SetGap(7)
	o := r.Alloc(s, 0)
	if o.AmortizedBytes() != 56 {
		t.Fatal("scalar amortized should be full size")
	}
}

// Property: scaled amortized bytes estimate the full array size to within
// one element-gap of error — the unbiasedness that defeats the large-array
// correlation bias.
func TestQuickAmortizedEstimator(t *testing.T) {
	f := func(start uint16, n uint16, gap uint16) bool {
		g := int64(gap%512) + 1
		nn := int(n%4096) + 1
		elems := SampledElems(int64(start), nn, g)
		estimate := int64(elems) * 8 * g // scaled logged bytes
		truth := int64(nn) * 8
		diff := estimate - truth
		if diff < 0 {
			diff = -diff
		}
		return diff <= 8*g // at most one gap-stride of error
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMustObjectPanics(t *testing.T) {
	r := newReg()
	defer func() {
		if recover() == nil {
			t.Error("MustObject on unknown id did not panic")
		}
	}()
	r.MustObject(999)
}

func TestClassNamesSorted(t *testing.T) {
	r := newReg()
	r.DefineClass("zeta", 8, 0)
	r.DefineClass("alpha", 8, 0)
	names := r.ClassNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("names = %v", names)
	}
	if len(r.classes) != 2 {
		t.Fatal("classes wrong length")
	}
}

func TestRefsAllocation(t *testing.T) {
	r := newReg()
	c := r.DefineClass("linked", 16, 2)
	o := r.Alloc(c, 0)
	if len(o.Refs) != 2 {
		t.Fatalf("refs len = %d, want 2", len(o.Refs))
	}
}

func TestSampledGapEdgeCases(t *testing.T) {
	r := newReg()
	c := r.DefineClass("X", 8, 0)
	o := r.Alloc(c, 0)
	if !o.SampledAtGap(1) {
		t.Fatal("gap 1 must sample everything")
	}
	if o.SampledAtGap(0) || o.SampledAtGap(-3) {
		t.Fatal("non-positive gap must sample nothing")
	}
}

// --- slice-arena registry invariants -----------------------------------------

// checkClassCounts compares NumObjectsOfClass for every class with a
// brute-force count over Object(1), Object(2), ... up to the first nil.
func checkClassCounts(t *testing.T, r *Registry) {
	t.Helper()
	brute := make([]int, len(r.classes))
	for id := ObjectID(1); r.Object(id) != nil; id++ {
		o := r.Object(id)
		if o.ID != id {
			t.Fatalf("Object(%d) has ID %d", id, o.ID)
		}
		brute[o.Class.ID]++
	}
	for _, c := range r.classes {
		if got := r.NumObjectsOfClass(c); got != brute[c.ID] {
			t.Fatalf("class %s: NumObjectsOfClass %d, brute force %d", c.Name, got, brute[c.ID])
		}
	}
}

// TestPerClassIndexSortedInterleaved: the per-class counts stay exact
// across interleaved scalar and array allocations on multiple nodes.
func TestPerClassIndexSortedInterleaved(t *testing.T) {
	r := newReg()
	s := r.DefineClass("S", 24, 1)
	a := r.DefineArrayClass("A", 8)
	b := r.DefineClass("B", 64, 0)
	for i := 0; i < 500; i++ {
		node := i % 4
		switch i % 3 {
		case 0:
			r.Alloc(s, node)
		case 1:
			r.AllocArray(a, 1+i%17, node)
		case 2:
			r.Alloc(b, node)
		}
	}
	checkClassCounts(t, r)
}

// TestObjectsOfClassAgreesWithBruteForce: the per-class counts match a
// brute-force scan over every object at each step of an interleaved
// allocation sequence, including a class that never allocates.
func TestObjectsOfClassAgreesWithBruteForce(t *testing.T) {
	r := newReg()
	classes := []*Class{
		r.DefineClass("x", 8, 0),
		r.DefineArrayClass("y", 4),
		r.DefineClass("z", 128, 2),
	}
	r.DefineClass("unused", 16, 0)
	checkClassCounts(t, r)
	for i := 0; i < 300; i++ {
		c := classes[(i*7/3)%len(classes)] // an irregular interleaving
		if c.IsArray {
			r.AllocArray(c, 1+i%9, i%3)
		} else {
			r.Alloc(c, i%3)
		}
		if i%50 == 0 {
			checkClassCounts(t, r)
		}
	}
	checkClassCounts(t, r)
}

// TestScalarAllocCostsOnlyTheArenaSlot: allocating 100,000 objects of a
// scalar class without references allocates at most 80 bytes per object,
// the arena slot (72 B) plus the chunk index. Measured: 72.3 with a
// per-class count; 162.2 with the ID-ordered and per-class *Object
// indexes appended on every allocation.
func TestScalarAllocCostsOnlyTheArenaSlot(t *testing.T) {
	const objs = 100000
	r := newReg()
	c := r.DefineClass("X", 64, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < objs; i++ {
		r.Alloc(c, 0)
	}
	runtime.ReadMemStats(&after)
	perObj := float64(after.TotalAlloc-before.TotalAlloc) / objs
	if r.NumObjectsOfClass(c) != objs {
		t.Fatalf("count = %d, want %d", r.NumObjectsOfClass(c), objs)
	}
	if perObj > 80 {
		t.Fatalf("allocating a scalar object costs %.1f bytes, want at most 80", perObj)
	}
}

// TestObjectPointerStability: *Object handles taken early must stay valid
// (same address, same data) after the arena grows by many chunks.
func TestObjectPointerStability(t *testing.T) {
	r := newReg()
	c := r.DefineClass("pin", 16, 0)
	early := r.Alloc(c, 2)
	earlySeq, earlyAddr := early.Seq, early.Addr
	for i := 0; i < 5*objChunkLen; i++ {
		r.Alloc(c, 0)
	}
	if r.Object(early.ID) != early {
		t.Fatal("lookup returns a different pointer after arena growth")
	}
	if early.Seq != earlySeq || early.Addr != earlyAddr || early.Home != 2 {
		t.Fatal("early object corrupted by arena growth")
	}
}

// TestObjectLookupBounds: dense lookup handles the zero ID and IDs past the
// end without panicking.
func TestObjectLookupBounds(t *testing.T) {
	r := newReg()
	c := r.DefineClass("X", 8, 0)
	o := r.Alloc(c, 0)
	if r.Object(o.ID) != o {
		t.Fatal("roundtrip failed")
	}
	if r.Object(InvalidObject) != nil || r.Object(-5) != nil || r.Object(o.ID+1) != nil {
		t.Fatal("out-of-range lookup must return nil")
	}
}

// BenchmarkAlloc measures the arena allocation path itself.
func BenchmarkAlloc(b *testing.B) {
	r := newReg()
	c := r.DefineClass("obj", 48, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Alloc(c, i%8)
	}
}
