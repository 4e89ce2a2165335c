package workload

import (
	"slices"
	"testing"

	"jessica2/internal/sim"
	"jessica2/internal/xrand"
)

// TestSortedLatenciesMatchesFullSort interleaves random records (duplicates
// and negative latencies included) with ledger reads, in batches from empty
// to larger than the sorted prefix. After each read the ledger must equal a
// full sort of everything recorded, and so must the percentiles the hedge
// and snapshot paths take from it.
func TestSortedLatenciesMatchesFullSort(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		var st serveState
		st.reset(8) // small, so the ledger also regrows between reads
		var all []sim.Time
		for read := 0; read < 40; read++ {
			batch := rng.Intn(40)
			if rng.Intn(8) == 0 {
				batch = len(all) + rng.Intn(200) // a tail larger than the prefix
			}
			for ; batch > 0; batch-- {
				lat := sim.Time(rng.Intn(300) - 30) // narrow range: many duplicates
				st.record(lat)
				all = append(all, max(lat, 0))
			}
			got := st.sortedLatencies()
			want := slices.Sorted(slices.Values(all))
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d read %d: ledger %v, want %v", seed, read, got, want)
			}
			censored := rng.Intn(4)
			for _, q := range []float64{0.5, 0.95, 0.99} {
				if g, w := percentile(got, q), percentile(want, q); g != w {
					t.Fatalf("seed %d read %d: percentile(%v) = %v, want %v", seed, read, q, g, w)
				}
				g := censoredPercentile(got, censored, 400, q)
				if w := censoredPercentile(want, censored, 400, q); g != w {
					t.Fatalf("seed %d read %d: censoredPercentile(%v) = %v, want %v", seed, read, q, g, w)
				}
			}
		}
	}
}

// TestServeStatsIntoNoAllocs checks that a warmed-up boundary snapshot into
// a reused dst allocates nothing, with new completions and censored misses
// recorded between snapshots.
func TestServeStatsIntoNoAllocs(t *testing.T) {
	const n = 8192
	w := NewServeMix()
	w.Robust = &RobustConfig{Deadline: 20 * sim.Millisecond}
	w.SetSchedule(robustSchedule(n, 0, sim.Microsecond))
	w.state.reset(n)
	rng := xrand.New(5)
	batch := func() {
		for i := 0; i < 32; i++ {
			w.state.record(sim.Time(rng.Intn(int(20 * sim.Millisecond))))
		}
		w.state.censor(20 * sim.Millisecond)
	}
	dst := &ServeStats{}
	batch()
	w.ServeStatsInto(dst, 5*sim.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		batch()
		w.ServeStatsInto(dst, 5*sim.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("warmed-up ServeStatsInto allocated %v times per call, want 0", allocs)
	}
}

// benchLedgerSize is about one serve-failover run's completions.
const benchLedgerSize = 32768

// benchLedger returns benchLedgerSize sorted latencies spread over a 20 ms
// deadline, and a batch of 32 fresh ones to record on top of them.
func benchLedger() (base, fresh []sim.Time) {
	rng := xrand.New(9)
	draw := func(n int) []sim.Time {
		s := make([]sim.Time, n)
		for i := range s {
			s[i] = sim.Time(rng.Intn(int(20 * sim.Millisecond)))
		}
		return s
	}
	base = draw(benchLedgerSize)
	slices.Sort(base)
	return base, draw(32)
}

// loadLedger resets w's ledger to the sorted base with one copy.
func loadLedger(w *ServeMix, base []sim.Time) {
	w.state.latencies = append(w.state.latencies[:0], base...)
	w.state.sorted = len(base)
}

// BenchmarkServeStatsInto times one boundary snapshot over a ledger of
// benchLedgerSize latencies with 32 completions recorded since the last.
func BenchmarkServeStatsInto(b *testing.B) {
	base, fresh := benchLedger()
	w := NewServeMix()
	w.SetSchedule(base) // any sorted schedule of the right length
	dst := &ServeStats{}
	w.state.reset(len(base) + len(fresh))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		loadLedger(w, base)
		b.StartTimer()
		for _, l := range fresh {
			w.state.record(l)
		}
		w.ServeStatsInto(dst, 20*sim.Second)
	}
}

// BenchmarkHedgeReestimate times the robust dispatcher's hedge upkeep for
// 32 completions on a ledger of benchLedgerSize latencies: 32 calls, one of
// which re-estimates the quantile.
func BenchmarkHedgeReestimate(b *testing.B) {
	base, fresh := benchLedger()
	w := NewServeMix()
	w.Robust = DefaultRobustConfig()
	d := &serveDispatcher{w: w, cfg: *w.Robust}
	w.state.reset(len(base) + len(fresh))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		loadLedger(w, base)
		d.sinceHedged = 0
		b.StartTimer()
		for _, l := range fresh {
			w.state.record(l)
			d.reestimateHedge()
		}
	}
	if d.hedgeDelay <= 0 {
		b.Fatal("hedge delay never re-estimated")
	}
}
