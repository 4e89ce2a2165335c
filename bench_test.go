// Benchmarks regenerating the paper's tables and figures (one per table
// AND figure), plus ablations of the design choices called out in
// DESIGN.md. Each iteration executes the full experiment at 1/8 dataset
// scale so `go test -bench=.` completes quickly; run cmd/djvmbench with
// -scale 1 for paper-scale numbers (recorded in EXPERIMENTS.md).
package jessica2_test

import (
	"os"
	"strconv"
	"testing"

	"jessica2"
	"jessica2/internal/experiments"
	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/runner"
	"jessica2/internal/sampling"
	"jessica2/internal/stack"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
)

const benchScale = experiments.Scale(8)

// benchPool drives every table/figure regeneration below through the
// parallel experiment runner. JESSICA2_PARALLEL overrides the worker count
// (GOMAXPROCS by default); `make bench-seq` sets it to 1 so perf artifacts
// can still be captured on the classic single-threaded path. Results are
// byte-identical either way (asserted by TestParallelRegenerationIdentity);
// only wall-clock moves.
var benchPool = runner.New(envParallelism())

func envParallelism() int {
	n, err := strconv.Atoi(os.Getenv("JESSICA2_PARALLEL"))
	if err != nil {
		return 0 // runner default: GOMAXPROCS
	}
	return n
}

// BenchmarkTable1Characteristics regenerates Table I.
func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1(benchScale) == nil {
			b.Fatal("no table")
		}
	}
}

// BenchmarkTable2OALCollection regenerates Table II (collection CPU cost).
func BenchmarkTable2OALCollection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(benchScale, benchPool)
		base := r.BaselineMs[experiments.AppBarnesHut]
		full := r.WithMs[experiments.AppBarnesHut][sampling.FullRate]
		b.ReportMetric((full-base)/base*100, "bh-full-overhead-%")
	}
}

// BenchmarkTable3CorrelationTracking regenerates Table III (exec time,
// message volumes, TCM computing time).
func BenchmarkTable3CorrelationTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(benchScale, benchPool)
		cell := r.Cells[experiments.AppBarnesHut][sampling.FullRate]
		b.ReportMetric(cell.OALShare*100, "bh-oal-share-%")
		b.ReportMetric(cell.TCMTimeMs, "bh-tcm-ms")
	}
}

// BenchmarkTable4StickyAccuracy regenerates Table IV (footprint accuracy).
func BenchmarkTable4StickyAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table4(benchScale, benchPool)
		var worst = 1.0
		for _, row := range r.Rows {
			if row.Accuracy < worst {
				worst = row.Accuracy
			}
		}
		b.ReportMetric(worst*100, "worst-class-accuracy-%")
	}
}

// BenchmarkTable5StickyOverhead regenerates Table V (stack sampling,
// footprinting and resolution overheads).
func BenchmarkTable5StickyOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table5(benchScale, benchPool)
		base := r.BaselineMs[experiments.AppBarnesHut]
		lazy := r.StackMs[experiments.AppBarnesHut]["lazy16"]
		b.ReportMetric((lazy-base)/base*100, "bh-stack-lazy16-%")
	}
}

// BenchmarkFig9Accuracy regenerates Figure 9 (accuracy vs sampling rate)
// and reports Barnes-Hut's lowest absolute/ABS accuracy across all rates
// (the paper's ">95% at almost all rates" claim).
func BenchmarkFig9Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchScale, benchPool)
		min := 1.0
		for _, p := range r.Points[experiments.AppBarnesHut] {
			if p.AbsoluteABS < min {
				min = p.AbsoluteABS
			}
		}
		b.ReportMetric(min*100, "bh-min-accuracy-%")
	}
}

// BenchmarkFig1InherentVsInduced regenerates Figure 1 (false sharing).
func BenchmarkFig1InherentVsInduced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(benchScale, benchPool)
		b.ReportMetric(experiments.GalaxyContrast(r.Inherent), "inherent-contrast")
		b.ReportMetric(experiments.GalaxyContrast(r.Induced), "induced-contrast")
	}
}

// --- ablations ---------------------------------------------------------------

// BenchmarkAblationPrimeGaps quantifies why real gaps are primes: with a
// cyclic allocation pattern of period 32, a gap of 32 aliases with the
// allocation cycle and samples a single phase class, while the prime 31
// spreads samples uniformly. The metric is the sampling bias of the "hot"
// object subset (|sampled-hot share − population-hot share|).
func BenchmarkAblationPrimeGaps(b *testing.B) {
	bias := func(gap int64) float64 {
		reg := heap.NewRegistry()
		c := reg.DefineClass("cyclic", 64, 0)
		c.SetGap(gap)
		const n = 32 * 200
		hot, sampledHot, sampled := 0, 0, 0
		for i := 0; i < n; i++ {
			o := reg.Alloc(c, 0)
			isHot := i%32 == 0 // one hot object per allocation cycle
			if isHot {
				hot++
			}
			if o.Sampled() {
				sampled++
				if isHot {
					sampledHot++
				}
			}
		}
		popShare := float64(hot) / float64(n)
		var smpShare float64
		if sampled > 0 {
			smpShare = float64(sampledHot) / float64(sampled)
		}
		d := smpShare - popShare
		if d < 0 {
			d = -d
		}
		return d
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(bias(32)*100, "pow2-gap-bias-%")
		b.ReportMetric(bias(31)*100, "prime-gap-bias-%")
	}
}

// BenchmarkAblationArrayBias quantifies the large-array bias the
// per-element amortization removes. A mixed population of small and large
// arrays is sampled at a coarse gap: large arrays are *always* selected
// (they contain a sampled element), so logging the whole array size
// overestimates the class's shared volume by roughly the gap factor, while
// the amortized sample size (sampledElems × elemSize × gap) stays within
// one element-stride of the truth.
func BenchmarkAblationArrayBias(b *testing.B) {
	run := func(amortized bool) (pctError float64) {
		reg := heap.NewRegistry()
		c := reg.DefineArrayClass("arr", 8)
		c.SetGap(61)
		var truth, estimate float64
		for i := 0; i < 200; i++ {
			n := 16
			if i%10 == 0 {
				n = 2048 // a few 16 KB arrays among many 128 B ones
			}
			o := reg.AllocArray(c, n, 0)
			truth += float64(o.Bytes())
			if !o.Sampled() {
				continue
			}
			if amortized {
				estimate += float64(o.AmortizedBytes()) * float64(o.Class.Gap())
			} else {
				estimate += float64(o.Bytes())
			}
		}
		e := (estimate - truth) / truth * 100
		if e < 0 {
			e = -e
		}
		return e
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "whole-array-error-%")
		b.ReportMetric(run(true), "amortized-error-%")
	}
}

// BenchmarkAblationMigration measures sticky-set prefetch: remote faults
// after a migration with and without the resolved sticky set.
func BenchmarkAblationMigration(b *testing.B) {
	run := func(prefetch bool) (faults int64) {
		cfg := jessica2.DefaultConfig()
		cfg.Kernel.Nodes = 2
		sess := jessica2.NewSession(cfg)
		eng := sess.MigrationEngine()
		cls := sess.Kernel().Reg.DefineClass("Rec", 128, 1)
		cls.SetGap(1)
		sess.Kernel().SpawnThread(0, "m", func(t *jessica2.Thread) {
			var objs []*jessica2.Object
			var prev *jessica2.Object
			for i := 0; i < 200; i++ {
				o := t.Alloc(cls)
				t.Write(o)
				if prev != nil {
					prev.Refs[0] = o
				}
				objs = append(objs, o)
				prev = o
			}
			var res *jessica2.Resolution
			if prefetch {
				res = sticky.Resolve(
					[]stack.InvariantRef{{Obj: objs[0]}},
					sticky.Footprint{"Rec": 200 * 128},
					sticky.DefaultResolverConfig())
			}
			eng.MigrateSelf(t, 1, res)
			before := t.Stats().Faults
			for _, o := range objs {
				t.Read(o)
			}
			faults = t.Stats().Faults - before
		})
		if _, err := sess.Run(); err != nil {
			b.Fatal(err)
		}
		return faults
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run(false)), "cold-migration-faults")
		b.ReportMetric(float64(run(true)), "prefetch-migration-faults")
	}
}

// BenchmarkAblationLazyExtraction compares frame-content extraction work
// under lazy vs immediate sampling on a Barnes-Hut-like stack (stable
// bottom frames, churning recursion on top).
func BenchmarkAblationLazyExtraction(b *testing.B) {
	run := func(lazy bool) int {
		reg := heap.NewRegistry()
		c := reg.DefineClass("T", 16, 0)
		o := reg.Alloc(c, 0)
		st := stack.NewThreadStack()
		mStable := &stack.Method{Name: "forces"}
		mWalk := &stack.Method{Name: "walk"}
		st.Push(mStable, 3).SetRef(0, o)
		sp := stack.NewSampler(lazy)
		for tick := 0; tick < 50; tick++ {
			// Fresh recursion frames between every sample.
			for d := 0; d < 10; d++ {
				st.Push(mWalk, 2)
			}
			sp.SampleStack(st)
			for d := 0; d < 10; d++ {
				st.Pop()
			}
		}
		return sp.Total.SlotsExtracted
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run(false)), "immediate-extracted-slots")
		b.ReportMetric(float64(run(true)), "lazy-extracted-slots")
	}
}

// BenchmarkAblationBalancer compares placements: spawn-order blocked vs
// correlation-driven, on the pipeline-style pattern.
func BenchmarkAblationBalancer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := tcm.NewMap(16)
		for p := 0; p+1 < 16; p += 2 {
			m.Set(p, p+1, 1000)
		}
		rr := jessica2.Assignment(make([]int, 16))
		for t := range rr {
			rr[t] = t % 4
		}
		planned, _ := jessica2.PlanPlacement(m, rr, 4)
		b.ReportMetric(jessica2.CrossVolume(m, rr), "roundrobin-cross-bytes")
		b.ReportMetric(jessica2.CrossVolume(m, planned), "planned-cross-bytes")
	}
}

// --- microbenchmarks of the hot paths ----------------------------------------

// BenchmarkAccessFastPath measures the inlined state-check path.
func BenchmarkAccessFastPath(b *testing.B) {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 1
	k := gos.NewKernel(cfg)
	cls := k.Reg.DefineClass("X", 64, 0)
	k.SpawnThread(0, "t", func(t *gos.Thread) {
		o := t.Alloc(cls)
		t.Write(o)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Read(o)
		}
	})
	k.Run()
}

// BenchmarkTCMBuild measures the correlation daemon's accrual pass.
func BenchmarkTCMBuild(b *testing.B) {
	bl := tcm.NewBuilder(16)
	for o := int64(0); o < 5000; o++ {
		for th := 0; th < 16; th++ {
			if (o+int64(th))%5 == 0 {
				bl.AddAccess(th, o, 64)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.Build()
	}
}

// BenchmarkTCMIncremental measures the epoch-snapshot hot path — PeekInto
// at steady state — on realistic daemon populations: the per-object state a
// finished closed-loop KVMix / Synthetic-zipf probe ingested. Each
// iteration models one boundary: a repeat access (the overwhelmingly common
// per-epoch delta) followed by a reused-scratch peek, which re-syncs only
// the cells the access dirtied.
func BenchmarkTCMIncremental(b *testing.B) {
	for _, load := range []struct{ name, app string }{
		{"KVMix", "kv"},
		{"Synthetic-zipf", "zipf"},
	} {
		sess, _ := experiments.ClosedLoopProbe(benchScale, load.app)
		sum := sess.Kernel().Master().Summary()
		n := sess.Kernel().NumThreads()
		if len(sum.Objs) == 0 {
			b.Fatalf("%s probe ingested no objects", load.name)
		}
		b.Run(load.name+"/incremental/peekinto", func(b *testing.B) {
			bl := tcm.NewBuilder(n)
			bl.IngestSummary(sum)
			scratch := bl.PeekInto(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := sum.Objs[i%len(sum.Objs)]
				bl.AddAccess(int(o.Threads[0]), o.Key, o.Bytes)
				scratch = bl.PeekInto(scratch)
			}
			b.ReportMetric(float64(len(sum.Objs)), "objects") // after ResetTimer, which drops reported metrics
		})
	}
}

// BenchmarkClosedLoopEpochRate measures the closed-loop session end to end
// at a fixed 2 ms epoch: one full KVMix/phased run with the rebalance
// policy per iteration, every boundary paying the flush + snapshot +
// observe pipeline the incremental TCM feeds.
func BenchmarkClosedLoopEpochRate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess, _ := experiments.ClosedLoopProbe(benchScale, "kv")
		b.ReportMetric(float64(sess.Epochs()), "epochs")
	}
}

// BenchmarkStackSample measures one sampler activation on a 12-deep stack.
func BenchmarkStackSample(b *testing.B) {
	reg := heap.NewRegistry()
	c := reg.DefineClass("T", 16, 0)
	o := reg.Alloc(c, 0)
	st := stack.NewThreadStack()
	m := &stack.Method{Name: "f"}
	for d := 0; d < 12; d++ {
		st.Push(m, 2).SetRef(0, o)
	}
	sp := stack.NewSampler(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.SampleStack(st)
	}
}

// BenchmarkDistanceABS measures the accuracy metric on a 32×32 map.
func BenchmarkDistanceABS(b *testing.B) {
	x, y := tcm.NewMap(32), tcm.NewMap(32)
	for i := 0; i < 32; i++ {
		for j := i + 1; j < 32; j++ {
			x.Set(i, j, float64(i*j))
			y.Set(i, j, float64(i*j+i))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tcm.DistanceABS(x, y)
	}
}

// BenchmarkAblationDistributedTCM compares the central correlation daemon
// against the §VI distributed reduction: master reorganization CPU and OAL
// wire volume for the same Water-Spatial run.
func BenchmarkAblationDistributedTCM(b *testing.B) {
	run := func(distributed bool) (masterMs, wireKB float64) {
		out := experiments.Run(experiments.Spec{
			App: experiments.AppWaterSpatial, Scale: benchScale,
			Nodes: 8, Threads: 8, Seed: 42, Tracking: gos.TrackingSampled,
			Rate: sampling.FullRate, TransferOALs: true,
			DistributedTCM: distributed,
		})
		return out.TCMTime.Milliseconds(), out.OALKB()
	}
	for i := 0; i < b.N; i++ {
		cm, cw := run(false)
		dm, dw := run(true)
		b.ReportMetric(cm, "central-master-ms")
		b.ReportMetric(dm, "distributed-master-ms")
		b.ReportMetric(cw, "central-oal-KB")
		b.ReportMetric(dw, "distributed-oal-KB")
	}
}
