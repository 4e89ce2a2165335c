package tcm

import (
	"encoding/binary"
	"math"
	"testing"

	"jessica2/internal/heap"
	"jessica2/internal/oal"
)

// checkMapInvariants asserts the structural invariants of a built TCM:
// symmetric, zero diagonal, finite non-negative cells, and Total equal to
// the cell sum.
func checkMapInvariants(t *testing.T, m *Map) {
	t.Helper()
	n := m.N()
	var sum float64
	for i := 0; i < n; i++ {
		if m.At(i, i) != 0 {
			t.Fatalf("diagonal [%d][%d] = %g, want 0", i, i, m.At(i, i))
		}
		for j := 0; j < n; j++ {
			v := m.At(i, j)
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("cell [%d][%d] = %g", i, j, v)
			}
			if v != m.At(j, i) {
				t.Fatalf("asymmetric: [%d][%d]=%g [%d][%d]=%g", i, j, v, j, i, m.At(j, i))
			}
			sum += v
		}
	}
	if total := m.Total(); math.Abs(total-sum) > 1e-6*(1+math.Abs(sum)) {
		t.Fatalf("Total() = %g, cell sum = %g", total, sum)
	}
}

// FuzzBuilder feeds the correlation daemon adversarial op streams — raw
// accesses with arbitrary (possibly out-of-range) thread ids, malformed
// OAL records, summary merges, builds and window resets — and asserts it
// never panics and every built map satisfies the TCM invariants.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("0123456789abcdef0123456789abcdef"))
	// An access, a build, a hostile thread id, a reset, another build.
	f.Add([]byte{
		0, 2, 0, 0, 0, 9, 0, 50,
		3, 0, 0, 0, 0, 0, 0, 0,
		0, 255, 255, 0, 0, 9, 0, 50,
		4, 0, 0, 0, 0, 0, 0, 0,
		3, 0, 0, 0, 0, 0, 0, 0,
	})
	// Record and summary ingestion ops.
	f.Add([]byte{
		1, 3, 0, 7, 1, 1, 2, 3,
		2, 120, 0, 5, 0, 44, 1, 200,
		3, 9, 9, 9, 9, 9, 9, 9,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		b := NewBuilder(n)
		for len(data) >= 8 {
			op, rest := data[0], data[1:8]
			data = data[8:]
			switch op % 5 {
			case 0: // raw access, thread id deliberately unclamped
				thread := int(int8(rest[0]))
				key := int64(binary.LittleEndian.Uint16(rest[1:3]))
				bytes := float64(binary.LittleEndian.Uint32(rest[3:7]))
				b.AddAccess(thread, key, bytes)
			case 1: // a malformed OAL record: arbitrary thread id
				// rest[1:3] once held the record's node and interval; they
				// are skipped so the corpus inputs keep their meaning.
				rec := &oal.Record{Thread: int(int8(rest[0]))}
				for i := 3; i+1 < len(rest); i += 2 {
					rec.Entries = append(rec.Entries, oal.Entry{
						Obj:   heap.ObjectID(rest[i]),
						Bytes: int64(rest[i+1]),
					})
				}
				b.IngestRecord(rec)
			case 2: // a summary with arbitrary thread ids
				s := &Summary{Objs: []ObjSummary{{
					Key:     int64(rest[0]),
					Bytes:   float64(binary.LittleEndian.Uint16(rest[1:3])),
					Threads: []int32{int32(int8(rest[3])), int32(rest[4]), int32(int8(rest[5]))},
				}}}
				b.IngestSummary(s)
			case 3:
				m, cost := b.Build()
				if m.N() != n {
					t.Fatalf("built map dimension %d, want %d", m.N(), n)
				}
				checkMapInvariants(t, m)
				if cost.PairAdds < 0 || cost.DroppedEntries < 0 {
					t.Fatalf("negative cost counters: %+v", cost)
				}
			case 4:
				b.Reset()
			}
		}
		m, _ := b.Build()
		checkMapInvariants(t, m)
		// A rebuilt map from unchanged state must be identical.
		m2, _ := b.Build()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.At(i, j) != m2.At(i, j) {
					t.Fatalf("rebuild diverged at [%d][%d]", i, j)
				}
			}
		}
	})
}

// FuzzBuilderEquivalence drives the incremental and full builders through
// one adversarial op stream — raw accesses with hostile thread ids, weight
// upgrades, record and summary ingestion, charged builds, scratch peeks and
// window resets — and asserts the two stay observationally identical:
// bit-equal maps and equal cost ledgers at every build point. Weights are
// bounded to uint16 so both builders operate in the regime where integer
// and float accumulation are exact (the documented fixed-point envelope);
// within it, equivalence must be exact, not approximate.
func FuzzBuilderEquivalence(f *testing.F) {
	f.Add([]byte{})
	// Pair formation, an upgrade, a build, a hostile id, a reset, a build.
	f.Add([]byte{
		0, 0, 1, 0, 100, 0, 0, 0,
		0, 1, 1, 0, 100, 0, 0, 0,
		0, 2, 1, 0, 200, 0, 0, 0,
		3, 0, 0, 0, 0, 0, 0, 0,
		0, 250, 1, 0, 50, 0, 0, 0,
		4, 0, 0, 0, 0, 0, 0, 0,
		3, 0, 0, 0, 0, 0, 0, 0,
	})
	// Record + summary ingestion and a scratch peek.
	f.Add([]byte{
		1, 3, 0, 7, 1, 1, 2, 3,
		2, 120, 0, 5, 0, 44, 1, 200,
		5, 0, 0, 0, 0, 0, 0, 0,
		3, 9, 9, 9, 9, 9, 9, 9,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		inc := NewBuilder(n)
		full := NewFullBuilder(n)
		var incScratch *Map
		compare := func(tag string, mi, mf *Map) {
			t.Helper()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if mi.At(i, j) != mf.At(i, j) {
						t.Fatalf("%s: [%d][%d] incremental %v vs full %v",
							tag, i, j, mi.At(i, j), mf.At(i, j))
					}
				}
			}
		}
		for len(data) >= 8 {
			op, rest := data[0], data[1:8]
			data = data[8:]
			switch op % 6 {
			case 0: // raw access, thread id deliberately unclamped
				thread := int(int8(rest[0]))
				key := int64(rest[1])
				bytes := float64(binary.LittleEndian.Uint16(rest[3:5]))
				inc.AddAccess(thread, key, bytes)
				full.AddAccess(thread, key, bytes)
			case 1: // a malformed OAL record (rest[1:3] skipped, as above)
				rec := &oal.Record{Thread: int(int8(rest[0]))}
				for i := 3; i+1 < len(rest); i += 2 {
					rec.Entries = append(rec.Entries, oal.Entry{
						Obj:   heap.ObjectID(rest[i]),
						Bytes: int64(rest[i+1]),
					})
				}
				inc.IngestRecord(rec)
				full.IngestRecord(rec)
			case 2: // a summary with arbitrary thread ids
				s := &Summary{Objs: []ObjSummary{{
					Key:     int64(rest[0]),
					Bytes:   float64(binary.LittleEndian.Uint16(rest[1:3])),
					Threads: []int32{int32(int8(rest[3])), int32(rest[4]), int32(int8(rest[5]))},
				}}}
				inc.IngestSummary(s)
				full.IngestSummary(s)
			case 3:
				mi, ci := inc.Build()
				mf, cf := full.Build()
				compare("Build", mi, mf)
				checkMapInvariants(t, mi)
				if ci != cf {
					t.Fatalf("cost incremental %+v vs full %+v", ci, cf)
				}
			case 4:
				inc.Reset()
				full.Reset()
			case 5: // reused-scratch peek: the epoch snapshot path
				incScratch = inc.PeekInto(incScratch)
				compare("PeekInto", incScratch, full.Peek())
			}
		}
		mi, _ := inc.Build()
		mf, _ := full.Build()
		compare("final", mi, mf)
	})
}

// FuzzDistances feeds arbitrary map pairs to the distance metrics and
// asserts they are finite-or-inf, non-negative, and zero on identical maps.
func FuzzDistances(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 4
		a, b := NewMap(n), NewMap(n)
		for i := 0; i+2 < len(data); i += 3 {
			ti, tj := int(data[i])%n, int(data[i+1])%n
			v := float64(data[i+2])
			if i%2 == 0 {
				a.Add(ti, tj, v)
			} else {
				b.Add(ti, tj, v)
			}
		}
		for _, d := range []float64{DistanceABS(a, b), DistanceEUC(a, b)} {
			if math.IsNaN(d) || d < 0 {
				t.Fatalf("distance = %g", d)
			}
		}
		if d := DistanceABS(a, a.Clone()); d != 0 {
			t.Fatalf("DistanceABS(a, a) = %g", d)
		}
		if d := DistanceEUC(b.Clone(), b); d != 0 {
			t.Fatalf("DistanceEUC(b, b) = %g", d)
		}
	})
}
