package experiments

import (
	"fmt"
	"math"
	"slices"

	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/metrics"
	"jessica2/internal/runner"
	"jessica2/internal/sampling"
	"jessica2/internal/sim"
	"jessica2/internal/sticky"
)

// table2Rates are the sampling-rate columns of Tables II and III.
var table2Rates = []sampling.Rate{1, 4, 16, sampling.FullRate}

// naRates mirrors the paper's N/A cells: rates at which a benchmark's
// object geometry makes sampling degenerate (every object of the dominant
// class is sampled anyway, so the configuration "does not apply"). SOR's
// 16 KB rows exceed the page size at every rate; Water-Spatial's 512-byte
// molecules saturate at 16X (8 objects fill a page).
func rateNA(a App, r sampling.Rate) bool {
	if r == sampling.FullRate {
		return false
	}
	switch a {
	case AppSOR:
		return true // rows are larger than a page: only full is distinct
	case AppWaterSpatial:
		return r >= 16
	}
	return false
}

// --- Table I ----------------------------------------------------------------

// Table1 renders the application benchmark characteristics.
func Table1(scale Scale) *metrics.Table {
	t := metrics.NewTable("TABLE I. APPLICATION BENCHMARK CHARACTERISTICS",
		"Benchmark", "Data set", "Rounds", "Granularity", "Object size")
	for _, a := range Apps {
		c := NewWorkload(a, false, scale).Characteristics()
		t.AddRow(c.Name, c.DataSet, fmt.Sprint(c.Rounds), c.Granularity, c.ObjectSize)
	}
	return t
}

// --- Table II ----------------------------------------------------------------

// Table2Result holds the OAL-collection CPU overhead measurements.
type Table2Result struct {
	Scale Scale
	// BaselineMs[app] is execution time without correlation tracking.
	BaselineMs map[App]float64
	// WithMs[app][rate] is execution time with collection (no transfer).
	WithMs map[App]map[sampling.Rate]float64
}

// rateCell is one (app, rate) cell of Tables II and III; rate 0 marks the
// no-tracking baseline (rates sweep from 1 up).
type rateCell struct {
	app  App
	rate sampling.Rate
}

// rateSweep lists, per paper app, the no-tracking baseline and then every
// applicable table2Rates cell, each a run with one thread per node.
func rateSweep(scale Scale, nodes int, transfer bool) ([]rateCell, []Spec) {
	var cells []rateCell
	var specs []Spec
	for _, a := range Apps {
		cells = append(cells, rateCell{a, 0})
		specs = append(specs, Spec{App: a, Scale: scale, Nodes: nodes, Threads: nodes, Seed: figSeed,
			Tracking: gos.TrackingOff})
		for _, r := range table2Rates {
			if rateNA(a, r) {
				continue
			}
			cells = append(cells, rateCell{a, r})
			specs = append(specs, Spec{App: a, Scale: scale, Nodes: nodes, Threads: nodes, Seed: figSeed,
				Tracking: gos.TrackingSampled, Rate: r, TransferOALs: transfer})
		}
	}
	return cells, specs
}

// Table2 measures the pure CPU cost of OAL collection: a single thread per
// application on one node, OAL transfer disabled (the paper's O1
// methodology). The independent runs are submitted through the pool; the
// fold is positional, so the result is identical at any parallelism.
func Table2(scale Scale, p *runner.Pool) *Table2Result {
	cells, specs := rateSweep(scale, 1, false)
	outs := RunAll(p, specs)

	res := &Table2Result{
		Scale:      scale,
		BaselineMs: make(map[App]float64),
		WithMs:     make(map[App]map[sampling.Rate]float64),
	}
	for i, c := range cells {
		ms := outs[i].ExecMs()
		if c.rate == 0 {
			res.BaselineMs[c.app] = ms
			res.WithMs[c.app] = make(map[sampling.Rate]float64)
			continue
		}
		res.WithMs[c.app][c.rate] = ms
	}
	return res
}

// Table renders the result in paper layout.
func (r *Table2Result) Table() *metrics.Table {
	t := metrics.NewTable("TABLE II. OVERHEAD OF OAL COLLECTION (ms, single thread, no OAL transfer)",
		"Benchmark", "No Tracking", "1X", "4X", "16X", "Full")
	for _, a := range Apps {
		row := []string{a.String(), fmt.Sprintf("%.0f", r.BaselineMs[a])}
		for _, rate := range table2Rates {
			if rateNA(a, rate) {
				row = append(row, "N/A")
				continue
			}
			row = append(row, metrics.MsCell(r.WithMs[a][rate], r.BaselineMs[a]))
		}
		t.AddRow(row...)
	}
	return t
}

func (r *Table2Result) String() string { return r.Table().String() }

// --- Table III ---------------------------------------------------------------

// Table3Cell is one (app, rate) measurement.
type Table3Cell struct {
	ExecMs    float64
	OALKB     float64
	OALShare  float64 // OAL / GOS volume
	TCMTimeMs float64
}

// Table3Result holds the full correlation-tracking overhead measurements:
// execution time with collect+send, message volumes, TCM computing time.
type Table3Result struct {
	Scale      Scale
	BaselineMs map[App]float64
	GOSKB      map[App]float64
	Cells      map[App]map[sampling.Rate]Table3Cell
}

// Table3 runs the 8-node (one thread each) correlation tracking overhead
// experiment, fanning the independent cells out over the pool.
func Table3(scale Scale, p *runner.Pool) *Table3Result {
	cells, specs := rateSweep(scale, 8, true)
	outs := RunAll(p, specs)

	res := &Table3Result{
		Scale:      scale,
		BaselineMs: make(map[App]float64),
		GOSKB:      make(map[App]float64),
		Cells:      make(map[App]map[sampling.Rate]Table3Cell),
	}
	for i, c := range cells {
		out := outs[i]
		if c.rate == 0 {
			res.BaselineMs[c.app] = out.ExecMs()
			res.Cells[c.app] = make(map[sampling.Rate]Table3Cell)
			continue
		}
		cl := Table3Cell{
			ExecMs:    out.ExecMs(),
			OALKB:     out.OALKB(),
			TCMTimeMs: out.TCMTime.Milliseconds(),
		}
		gosKB := out.GOSKB()
		if res.GOSKB[c.app] == 0 {
			res.GOSKB[c.app] = gosKB
		}
		if gosKB > 0 {
			cl.OALShare = cl.OALKB / gosKB
		}
		res.Cells[c.app][c.rate] = cl
	}
	return res
}

// Table renders the result in paper layout (three stacked sections).
func (r *Table3Result) Table() *metrics.Table {
	t := metrics.NewTable("TABLE III. CORRELATION TRACKING OVERHEADS (8 nodes x 1 thread)",
		"Benchmark", "Metric", "No Tracking", "1X", "4X", "16X", "Full")
	for _, a := range Apps {
		execRow := []string{a.String(), "Exec time (ms)", fmt.Sprintf("%.0f", r.BaselineMs[a])}
		volRow := []string{"", "OAL vol KB (% of GOS)", fmt.Sprintf("GOS=%.0fKB", r.GOSKB[a])}
		tcmRow := []string{"", "TCM compute (ms)", "-"}
		for _, rate := range table2Rates {
			if rateNA(a, rate) {
				execRow = append(execRow, "N/A")
				volRow = append(volRow, "N/A")
				tcmRow = append(tcmRow, "N/A")
				continue
			}
			c := r.Cells[a][rate]
			execRow = append(execRow, metrics.MsCell(c.ExecMs, r.BaselineMs[a]))
			volRow = append(volRow, fmt.Sprintf("%.0f (%.2f%%)", c.OALKB, c.OALShare*100))
			tcmRow = append(tcmRow, fmt.Sprintf("%.0f", c.TCMTimeMs))
		}
		t.AddRow(execRow...)
		t.AddRow(volRow...)
		t.AddRow(tcmRow...)
	}
	return t
}

func (r *Table3Result) String() string { return r.Table().String() }

// --- Table IV ----------------------------------------------------------------

// Table4Row is one per-class sticky-set footprint accuracy measurement.
type Table4Row struct {
	App       App
	Class     string
	FullBytes float64 // average SS footprint at full sampling
	DiffBytes float64 // average |4X − full| difference
	Accuracy  float64
}

// Table4Result holds the sticky-set footprint accuracy study.
type Table4Result struct {
	Scale Scale
	Rows  []Table4Row
}

// Table4 profiles sticky-set footprints at full sampling and at 4X with 8
// threads per application and compares the per-class estimates. The
// full/4X pairs of all applications run through the pool.
func Table4(scale Scale, p *runner.Pool) *Table4Result {
	specs := make([]Spec, 0, 2*len(Apps))
	for _, a := range Apps {
		specs = append(specs,
			footprintSpec(a, scale, sampling.FullRate),
			footprintSpec(a, scale, 4))
	}
	outs := RunAll(p, specs)

	res := &Table4Result{Scale: scale}
	for ai, a := range Apps {
		full, fourX := outs[2*ai], outs[2*ai+1]
		// Average per class across threads.
		classes := map[string]struct{}{}
		for _, fp := range full.Footprints {
			for c := range fp {
				classes[c] = struct{}{}
			}
		}
		names := make([]string, 0, len(classes))
		for c := range classes {
			names = append(names, c)
		}
		slices.Sort(names)
		n := float64(len(full.Footprints))
		for _, cname := range names {
			var fullSum, diffSum float64
			for tid, fp := range full.Footprints {
				fv := float64(fp[cname])
				var xv float64
				if x, ok := fourX.Footprints[tid]; ok {
					xv = float64(x[cname])
				}
				fullSum += fv
				diffSum += math.Abs(fv - xv)
			}
			if fullSum == 0 {
				continue
			}
			row := Table4Row{
				App:       a,
				Class:     cname,
				FullBytes: fullSum / n,
				DiffBytes: diffSum / n,
			}
			row.Accuracy = 1 - row.DiffBytes/row.FullBytes
			if row.Accuracy < 0 {
				row.Accuracy = 0
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// footprintSpec builds one Table IV cell's spec: nonstop footprinting.
// Each spec gets its own FootprintConfig: specs run concurrently under the
// pool and must not share pointered configuration.
func footprintSpec(a App, scale Scale, rate sampling.Rate) Spec {
	return Spec{App: a, Scale: scale, Nodes: 8, Threads: 8, Seed: figSeed,
		Tracking: gos.TrackingOff, Rate: rate, Footprint: footprintConfig(true)}
}

// Table renders Table IV in paper layout.
func (r *Table4Result) Table() *metrics.Table {
	t := metrics.NewTable("TABLE IV. ACCURACY OF STICKY-SET FOOTPRINT (8 threads; 4X vs full sampling)",
		"Benchmark", "Class", "Avg SS footprint at full (bytes)", "Avg diff at 4X (bytes)", "Accuracy")
	last := App(-1)
	for _, row := range r.Rows {
		name := ""
		if row.App != last {
			name = row.App.String()
			last = row.App
		}
		t.AddRow(name, row.Class,
			fmt.Sprintf("%.0f", row.FullBytes),
			fmt.Sprintf("%.0f", row.DiffBytes),
			fmt.Sprintf("%.2f%%", row.Accuracy*100))
	}
	return t
}

func (r *Table4Result) String() string { return r.Table().String() }

// --- Table V -----------------------------------------------------------------

// Table5Result holds the sticky-set profiling overhead measurements.
type Table5Result struct {
	Scale      Scale
	BaselineMs map[App]float64
	// StackMs[app][cfg] with cfg keys "imm4", "imm16", "lazy4", "lazy16".
	StackMs map[App]map[string]float64
	// FootMs[app][cfg] with cfg keys "non4X", "nonFull", "timer4X",
	// "timerFull".
	FootMs map[App]map[string]float64
	// ResolveMs[app] is timer-4X footprinting + 16ms lazy stack sampling
	// + eager per-interval resolution; ResolveBaseMs is the same config
	// without resolution.
	ResolveMs, ResolveBaseMs map[App]float64
}

var stackCfgs = []struct {
	Key  string
	Lazy bool
	Gap  sim.Time
}{
	{"imm4", false, 4 * sim.Millisecond},
	{"imm16", false, 16 * sim.Millisecond},
	{"lazy4", true, 4 * sim.Millisecond},
	{"lazy16", true, 16 * sim.Millisecond},
}

var footCfgs = []struct {
	Key     string
	Nonstop bool
	Rate    sampling.Rate
}{
	{"non4X", true, 4},
	{"nonFull", true, sampling.FullRate},
	{"timer4X", false, 4},
	{"timerFull", false, sampling.FullRate},
}

// footprintConfig is the calibrated default footprinter, sweeping nonstop
// or on the paper's 100 ms timer.
func footprintConfig(nonstop bool) *core.FootprintConfig {
	fc := sticky.DefaultFootprinterConfig()
	fc.Nonstop = nonstop
	return &core.FootprintConfig{FootprinterConfig: fc}
}

// table5Set files one Table V run's execution time into the result.
type table5Set func(r *Table5Result, ms float64)

// table5Specs builds one app's 11 single-thread runs in table order, each
// with the setter that files its execution time. Each spec carries freshly
// allocated Stack/Footprint configs: the pool runs specs concurrently and
// pointered configuration must not be shared.
func table5Specs(a App, scale Scale) ([]Spec, []table5Set) {
	small := a == AppSOR
	base := func() Spec {
		return Spec{App: a, Small: small, Scale: scale, Nodes: 1, Threads: 1, Seed: figSeed,
			Tracking: gos.TrackingOff}
	}
	// lazyStack is a fresh copy of the default stack profiler: lazy
	// extraction every 16 ms.
	lazyStack := func() *core.StackConfig {
		sc := core.DefaultStackConfig()
		return &sc
	}
	var specs []Spec
	var sets []table5Set
	add := func(s Spec, set table5Set) {
		specs = append(specs, s)
		sets = append(sets, set)
	}

	add(base(), func(r *Table5Result, ms float64) { r.BaselineMs[a] = ms })

	for _, sc := range stackCfgs {
		s := base()
		s.Stack = lazyStack()
		s.Stack.Gap, s.Stack.Lazy = sc.Gap, sc.Lazy
		add(s, func(r *Table5Result, ms float64) { r.StackMs[a][sc.Key] = ms })
	}

	for _, fc := range footCfgs {
		s := base()
		s.Rate = fc.Rate
		s.Footprint = footprintConfig(fc.Nonstop)
		add(s, func(r *Table5Result, ms float64) { r.FootMs[a][fc.Key] = ms })
	}

	// Resolution overhead: timer-based 4X footprinting + lazy 16 ms stack
	// sampling, with and without eager per-interval resolution.
	s := base()
	s.Rate, s.Stack, s.Footprint = 4, lazyStack(), footprintConfig(false)
	add(s, func(r *Table5Result, ms float64) { r.ResolveBaseMs[a] = ms })

	s = base()
	fpr := footprintConfig(false)
	fpr.EagerResolve = true
	fpr.Resolver = sticky.DefaultResolverConfig()
	s.Rate, s.Stack, s.Footprint = 4, lazyStack(), fpr
	add(s, func(r *Table5Result, ms float64) { r.ResolveMs[a] = ms })

	return specs, sets
}

// Table5 measures stack sampling, footprinting and resolution overheads on
// single-thread runs (SOR at the 1K×1K dataset, per the paper), submitting
// every configuration through the pool.
func Table5(scale Scale, p *runner.Pool) *Table5Result {
	res := &Table5Result{
		Scale:         scale,
		BaselineMs:    make(map[App]float64),
		StackMs:       make(map[App]map[string]float64),
		FootMs:        make(map[App]map[string]float64),
		ResolveMs:     make(map[App]float64),
		ResolveBaseMs: make(map[App]float64),
	}
	var specs []Spec
	var sets []table5Set
	for _, a := range Apps {
		res.StackMs[a] = make(map[string]float64)
		res.FootMs[a] = make(map[string]float64)
		s, set := table5Specs(a, scale)
		specs = append(specs, s...)
		sets = append(sets, set...)
	}
	for i, out := range RunAll(p, specs) {
		sets[i](res, out.ExecMs())
	}
	return res
}

// Table renders Table V in paper layout.
func (r *Table5Result) Table() *metrics.Table {
	t := metrics.NewTable("TABLE V. OVERHEAD OF STICKY-SET FOOTPRINT PROFILING (ms, single thread)",
		"Benchmark", "Data set", "Baseline",
		"Stack imm 4ms", "Stack imm 16ms", "Stack lazy 4ms", "Stack lazy 16ms",
		"Footprint nonstop 4X", "Footprint nonstop full",
		"Footprint timer 4X", "Footprint timer full",
		"+Resolution")
	for _, a := range Apps {
		base := r.BaselineMs[a]
		row := []string{a.String(), DataSetLabel(a, a == AppSOR, r.Scale), fmt.Sprintf("%.0f", base)}
		for _, sc := range stackCfgs {
			row = append(row, metrics.MsCell(r.StackMs[a][sc.Key], base))
		}
		for _, fc := range footCfgs {
			row = append(row, metrics.MsCell(r.FootMs[a][fc.Key], base))
		}
		row = append(row, metrics.MsCell(r.ResolveMs[a], r.ResolveBaseMs[a]))
		t.AddRow(row...)
	}
	return t
}

func (r *Table5Result) String() string { return r.Table().String() }
