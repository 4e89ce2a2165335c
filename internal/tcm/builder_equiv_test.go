package tcm

import (
	"fmt"
	"math"
	"testing"

	"jessica2/internal/heap"
	"jessica2/internal/oal"
)

// The incremental builder's contract is bit-equality with the full
// rebuild on the simulator's weight domain (integral byte counts within the
// fixed-point envelope). These property tests drive both implementations
// through identical random streams of raw accesses, weight upgrades,
// malformed thread ids, record and summary ingestion, peeks, charged builds
// and window resets, and assert every observable — map cells, cost ledger,
// summaries — matches exactly.

// equivRand is the same tiny deterministic generator the scheduler's
// property tests use.
type equivRand uint64

func (s *equivRand) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// assertMapsBitEqual compares two maps cell for cell with float64 ==.
func assertMapsBitEqual(t *testing.T, tag string, inc, full *Map) {
	t.Helper()
	if inc.N() != full.N() {
		t.Fatalf("%s: dimension %d vs %d", tag, inc.N(), full.N())
	}
	for i := 0; i < inc.N(); i++ {
		for j := 0; j < inc.N(); j++ {
			if a, b := inc.At(i, j), full.At(i, j); a != b {
				t.Fatalf("%s: cell [%d][%d] incremental %v (bits %x) vs full %v (bits %x)",
					tag, i, j, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
	}
}

func assertCostsEqual(t *testing.T, tag string, inc, full BuildCost) {
	t.Helper()
	if inc != full {
		t.Fatalf("%s: cost incremental %+v vs full %+v", tag, inc, full)
	}
}

// TestIncrementalEquivalenceRandomStreams is the central property: on
// random op streams the incremental and full builders are observationally
// identical — bit-equal maps from Build/Peek/PeekInto (including reused
// scratch), equal simulated cost ledgers, and equal summaries.
func TestIncrementalEquivalenceRandomStreams(t *testing.T) {
	const n = 9 // odd, spans two bitset words at 64+ threads below
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := equivRand(seed * 0x1234567)
			inc := NewBuilder(n)
			full := NewFullBuilder(n)
			var incScratch *Map
			for op := 0; op < 4000; op++ {
				switch rng.next() % 100 {
				case 96: // charged build + full comparison
					mi, ci := inc.Build()
					mf, cf := full.Build()
					assertMapsBitEqual(t, "Build", mi, mf)
					assertCostsEqual(t, "Build", ci, cf)
				case 97: // peek into reused scratch (the epoch path)
					incScratch = inc.PeekInto(incScratch)
					assertMapsBitEqual(t, "PeekInto", incScratch, full.Peek())
				case 98: // summary export
					si, sf := inc.Summarize(), full.Summarize()
					if len(si.Objs) != len(sf.Objs) || si.WireBytes() != sf.WireBytes() {
						t.Fatalf("summaries differ: %d objs/%dB vs %d objs/%dB",
							len(si.Objs), si.WireBytes(), len(sf.Objs), sf.WireBytes())
					}
					for k := range si.Objs {
						a, b := si.Objs[k], sf.Objs[k]
						if a.Key != b.Key || a.Bytes != b.Bytes || len(a.Threads) != len(b.Threads) {
							t.Fatalf("summary obj %d differs: %+v vs %+v", k, a, b)
						}
						for x := range a.Threads {
							if a.Threads[x] != b.Threads[x] {
								t.Fatalf("summary obj %d threads differ", k)
							}
						}
					}
				case 99: // window reset
					inc.Reset()
					full.Reset()
				default:
					r := rng.next()
					// Thread id: mostly valid, sometimes hostile.
					th := int(r % n)
					if r%13 == 0 {
						th = int(int8(r >> 8)) // may be negative or >= n
					}
					key := int64(rng.next() % 48) // dense keyspace: collisions and upgrades
					w := float64(rng.next() % 65536)
					switch r % 7 {
					case 5: // OAL record ingestion
						rec := &oal.Record{Thread: th}
						for e := 0; e < int(rng.next()%4); e++ {
							rec.Entries = append(rec.Entries, oal.Entry{
								Obj:   heap.ObjectID(rng.next() % 48),
								Bytes: int64(rng.next() % 65536),
							})
						}
						inc.IngestRecord(rec)
						full.IngestRecord(rec)
					case 6: // summary merge, possibly with hostile ids
						s := &Summary{Objs: []ObjSummary{{
							Key:   key,
							Bytes: w,
							Threads: []int32{
								int32(rng.next() % n),
								int32(int8(rng.next())),
								int32(rng.next() % n),
							},
						}}}
						inc.IngestSummary(s)
						full.IngestSummary(s)
					default:
						inc.AddAccess(th, key, w)
						full.AddAccess(th, key, w)
					}
				}
			}
			mi, ci := inc.Build()
			mf, cf := full.Build()
			assertMapsBitEqual(t, "final", mi, mf)
			assertCostsEqual(t, "final", ci, cf)
		})
	}
}

// TestIncrementalEquivalenceWideDimension re-runs a short stream at a
// dimension spanning multiple bitset words (N = 130), exercising the
// word-wise membership iteration across word boundaries.
func TestIncrementalEquivalenceWideDimension(t *testing.T) {
	const n = 130
	rng := equivRand(0xfeedface)
	inc := NewBuilder(n)
	full := NewFullBuilder(n)
	for op := 0; op < 6000; op++ {
		th := int(rng.next() % n)
		key := int64(rng.next() % 16)
		w := float64(rng.next() % 4096)
		inc.AddAccess(th, key, w)
		full.AddAccess(th, key, w)
	}
	mi, ci := inc.Build()
	mf, cf := full.Build()
	assertMapsBitEqual(t, "wide", mi, mf)
	assertCostsEqual(t, "wide", ci, cf)
}

// TestIncrementalUpgradeDelta pins the differential weight-upgrade path:
// the upgrade's delta re-accrual over the existing pair set must equal the
// full builder's from-scratch rebuild with the final max weight.
func TestIncrementalUpgradeDelta(t *testing.T) {
	inc := NewBuilder(4)
	full := NewFullBuilder(4)
	for _, b := range []*struct {
		add func(t int, key int64, w float64)
	}{{inc.AddAccess}, {full.AddAccess}} {
		b.add(0, 1, 40)
		b.add(1, 1, 40)  // pair forms at weight 40
		b.add(2, 1, 90)  // third member joins AND upgrades to 90
		b.add(0, 1, 70)  // stale smaller re-log: no effect
		b.add(3, 1, 90)  // fourth member at the current weight
		b.add(1, 1, 120) // upgrade over the full 4-thread pair set
	}
	mi, _ := inc.Build()
	mf, _ := full.Build()
	assertMapsBitEqual(t, "upgrade", mi, mf)
	if mi.At(0, 1) != 120 {
		t.Fatalf("TCM[0][1] = %v, want the final upgraded weight 120", mi.At(0, 1))
	}
}

// TestBuildCostCumulativeCharge: repeated charged Builds accumulate
// PairAdds (the paper's daemon re-runs the accrual pass each time), and the
// incremental builder must replicate that simulated charge exactly even
// though its host-side Build is O(1).
func TestBuildCostCumulativeCharge(t *testing.T) {
	inc := NewBuilder(3)
	full := NewFullBuilder(3)
	for _, add := range []func(int, int64, float64){inc.AddAccess, full.AddAccess} {
		add(0, 1, 100)
		add(1, 1, 100)
		add(0, 2, 50)
		add(1, 2, 50)
		add(2, 2, 50)
	}
	_, c1 := inc.Build()
	_, f1 := full.Build()
	assertCostsEqual(t, "first build", c1, f1)
	if c1.PairAdds != 4 || c1.Objects != 2 {
		t.Fatalf("first build cost = %+v", c1)
	}
	_, c2 := inc.Build()
	_, f2 := full.Build()
	assertCostsEqual(t, "second build", c2, f2)
	if c2.PairAdds != 8 {
		t.Fatalf("PairAdds must accumulate across charged builds: %+v", c2)
	}
	// Peeks never charge.
	inc.Peek()
	inc.PeekInto(nil)
	_, c3 := inc.Build()
	if c3.PairAdds != 12 {
		t.Fatalf("peeks perturbed the ledger: %+v", c3)
	}
}
