package experiments

import (
	"strings"
	"testing"

	"jessica2/internal/gos"
	"jessica2/internal/profile"
	"jessica2/internal/sampling"
	"jessica2/internal/scenario"
	"jessica2/internal/sim"
)

// Experiment integration tests run at 1/8 dataset scale so the suite stays
// fast while preserving every experiment's structure and the paper's
// qualitative claims.
const testScale = Scale(8)

func TestNewWorkloadScaling(t *testing.T) {
	full := NewWorkload(AppBarnesHut, false, 1)
	small := NewWorkload(AppBarnesHut, false, 4)
	if full.Characteristics().DataSet == small.Characteristics().DataSet {
		t.Fatal("scaling had no effect")
	}
	// Floors hold.
	tiny := NewWorkload(AppWaterSpatial, false, 1000)
	if tiny.Characteristics().DataSet == "" {
		t.Fatal("tiny workload broken")
	}
}

func TestRateNAMirrorsPaper(t *testing.T) {
	// SOR: only full sampling is distinct (rows larger than a page).
	for _, r := range []sampling.Rate{1, 4, 16} {
		if !rateNA(AppSOR, r) {
			t.Errorf("SOR %v should be N/A", r)
		}
	}
	if rateNA(AppSOR, sampling.FullRate) {
		t.Error("SOR full must not be N/A")
	}
	// Water-Spatial saturates at 16X.
	if rateNA(AppWaterSpatial, 4) || !rateNA(AppWaterSpatial, 16) {
		t.Error("WS N/A boundary wrong")
	}
	// Barnes-Hut is fine-grained: everything applies.
	for _, r := range []sampling.Rate{1, 4, 16} {
		if rateNA(AppBarnesHut, r) {
			t.Errorf("BH %v should apply", r)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	tb := Table1(testScale)
	s := tb.String()
	for _, name := range []string{"SOR", "Barnes-Hut", "Water-Spatial", "Coarse", "Fine", "Medium"} {
		if !strings.Contains(s, name) {
			t.Errorf("Table I missing %q", name)
		}
	}
	if !strings.Contains(tb.CSV(), "Benchmark,") {
		t.Error("CSV broken")
	}
}

func TestTable2OverheadsSmallAndOrdered(t *testing.T) {
	r := Table2(testScale, nil)
	for _, a := range Apps {
		base := r.BaselineMs[a]
		if base <= 0 {
			t.Fatalf("%v baseline = %v", a, base)
		}
		full := r.WithMs[a][sampling.FullRate]
		over := (full - base) / base
		// The paper's claim: collection cost is minimal (~1% worst case).
		if over > 0.05 {
			t.Errorf("%v full-sampling collection overhead %.2f%% too large", a, over*100)
		}
		if over < -0.05 {
			t.Errorf("%v negative overhead %.2f%% too large", a, over*100)
		}
	}
	if !strings.Contains(r.String(), "N/A") {
		t.Error("Table II should mirror the paper's N/A cells")
	}
}

func TestTable3VolumesAndShape(t *testing.T) {
	r := Table3(testScale, nil)
	for _, a := range Apps {
		full := r.Cells[a][sampling.FullRate]
		if full.OALKB <= 0 {
			t.Fatalf("%v has no OAL volume at full sampling", a)
		}
		if full.OALShare <= 0 || full.OALShare > 0.5 {
			t.Errorf("%v OAL share %.2f%% out of band", a, full.OALShare*100)
		}
		if full.TCMTimeMs < 0 {
			t.Errorf("%v TCM time negative", a)
		}
	}
	// Rising OAL volume with rate for the fine-grained app.
	bh := r.Cells[AppBarnesHut]
	if !(bh[1].OALKB <= bh[4].OALKB && bh[4].OALKB <= bh[sampling.FullRate].OALKB) {
		t.Errorf("BH OAL volume not monotone: 1X=%v 4X=%v full=%v",
			bh[1].OALKB, bh[4].OALKB, bh[sampling.FullRate].OALKB)
	}
	// TCM compute time largest at full sampling.
	if bh[sampling.FullRate].TCMTimeMs < bh[1].TCMTimeMs {
		t.Error("TCM compute time should grow with sampling rate")
	}
}

func TestFig9AccuracyClaims(t *testing.T) {
	r := Fig9(testScale, nil)
	for _, a := range Apps {
		pts := r.Points[a]
		if len(pts) != len(Fig9Rates) {
			t.Fatalf("%v has %d points", a, len(pts))
		}
		// The paper's headline: accuracy at the finer half of the sweep
		// stays above 95%.
		for _, p := range pts[:4] { // 512X..64X
			if p.AbsoluteABS < 0.90 {
				t.Errorf("%v at %v: absolute/ABS %.2f%% below band", a, p.Rate, p.AbsoluteABS*100)
			}
		}
		// ABS is at least as stable as EUC on average (paper: ABS
		// "consistently outperforms").
		var absSum, eucSum float64
		for _, p := range pts {
			absSum += p.AbsoluteABS
			eucSum += p.AbsoluteEUC
		}
		if absSum < eucSum-0.05*float64(len(pts)) {
			t.Errorf("%v: EUC beat ABS overall (abs %.3f vs euc %.3f)", a, absSum, eucSum)
		}
		// Relative tracks absolute: mostly within a few points.
		var relDiff float64
		for _, p := range pts {
			d := p.AbsoluteABS - p.RelativeABS
			if d < 0 {
				d = -d
			}
			relDiff += d
		}
		if relDiff/float64(len(pts)) > 0.10 {
			t.Errorf("%v: relative accuracy diverges from absolute by %.1f%% on average",
				a, relDiff/float64(len(pts))*100)
		}
	}
}

func TestFig1GalaxyContrast(t *testing.T) {
	r := Fig1(testScale, nil)
	inh := GalaxyContrast(r.Inherent)
	ind := GalaxyContrast(r.Induced)
	// The inherent map must show the two-galaxy block structure; the
	// page-based induced map must wash it out.
	if inh < 1.5 {
		t.Fatalf("inherent contrast %.2f too weak", inh)
	}
	if ind > inh/1.5 {
		t.Fatalf("induced contrast %.2f not sufficiently degraded vs %.2f", ind, inh)
	}
	if !strings.Contains(r.String(), "Inherent") {
		t.Error("rendering broken")
	}
}

func TestTable4FootprintAccuracy(t *testing.T) {
	r := Table4(testScale, nil)
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	seenApps := map[App]bool{}
	for _, row := range r.Rows {
		seenApps[row.App] = true
		if row.FullBytes <= 0 {
			t.Errorf("%v/%s zero footprint", row.App, row.Class)
		}
		if row.Accuracy < 0 || row.Accuracy > 1 {
			t.Errorf("%v/%s accuracy %.2f out of range", row.App, row.Class, row.Accuracy)
		}
	}
	if len(seenApps) != 3 {
		t.Fatalf("apps covered: %v", seenApps)
	}
	// SOR's arrays exceed the page size, so 4X is effectively full
	// sampling: near-perfect accuracy (the paper's 100% row).
	for _, row := range r.Rows {
		if row.App == AppSOR && row.Class == "double[]" && row.Accuracy < 0.95 {
			t.Errorf("SOR double[] accuracy %.2f%%, want ~100%%", row.Accuracy*100)
		}
	}
}

func TestTable5OverheadShapes(t *testing.T) {
	r := Table5(testScale, nil)
	for _, a := range Apps {
		base := r.BaselineMs[a]
		if base <= 0 {
			t.Fatal("no baseline")
		}
		// Stack sampling overhead bounded (paper: worst 1.44%).
		for _, cfgKey := range []string{"imm4", "imm16", "lazy4", "lazy16"} {
			over := (r.StackMs[a][cfgKey] - base) / base
			if over < -0.02 || over > 0.08 {
				t.Errorf("%v stack %s overhead %.2f%% out of band", a, cfgKey, over*100)
			}
		}
		// 16ms sampling cheaper than 4ms for the same mode.
		if r.StackMs[a]["imm16"] > r.StackMs[a]["imm4"]+base*0.002 {
			t.Errorf("%v: 16ms immediate costlier than 4ms", a)
		}
		// Footprinting: timer mode no costlier than nonstop.
		if r.FootMs[a]["timer4X"] > r.FootMs[a]["non4X"]+base*0.005 {
			t.Errorf("%v: timer footprinting costlier than nonstop", a)
		}
		// Resolution adds bounded overhead on its base config.
		over := (r.ResolveMs[a] - r.ResolveBaseMs[a]) / r.ResolveBaseMs[a]
		if over < -0.01 || over > 0.10 {
			t.Errorf("%v resolution overhead %.2f%% out of band", a, over*100)
		}
	}
	// SOR: sampling rate has no effect on footprinting cost (rows always
	// sampled) — the paper's explicit observation.
	diff := r.FootMs[AppSOR]["non4X"] - r.FootMs[AppSOR]["nonFull"]
	if diff < 0 {
		diff = -diff
	}
	if diff > r.BaselineMs[AppSOR]*0.01 {
		t.Errorf("SOR footprinting differs between 4X and full by %.0fms", diff)
	}
	// Barnes-Hut: 4X sampling cuts footprinting cost vs full (fine-grained
	// apps benefit).
	if r.FootMs[AppBarnesHut]["non4X"] >= r.FootMs[AppBarnesHut]["nonFull"] {
		t.Error("BH: 4X footprinting not cheaper than full")
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := Spec{App: AppWaterSpatial, Scale: testScale, Nodes: 4, Threads: 4,
		Tracking: gos.TrackingSampled, Rate: sampling.FullRate, TransferOALs: true}
	a := Run(spec)
	b := Run(spec)
	if a.Exec != b.Exec {
		t.Fatalf("exec times differ: %v vs %v", a.Exec, b.Exec)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats differ")
	}
	if d := a.TCM.Total() - b.TCM.Total(); d != 0 {
		t.Fatalf("TCM totals differ by %v", d)
	}
}

// TestSpecValidate: Validate accepts runnable specs and rejects each
// setting that cannot run; every shipped policy name resolves.
func TestSpecValidate(t *testing.T) {
	burst, err := scenario.Preset("burst", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := func(edit func(*Spec)) Spec {
		s := Spec{App: AppKVMix, Nodes: 4, Threads: 4}
		edit(&s)
		return s
	}
	serve := func(s *Spec) { s.App, s.Scenario = AppServe, burst }
	fp := profile.Fingerprint{Workload: "KVMix", Nodes: 4, Threads: 4}
	for name, s := range map[string]Spec{
		"plain":          base(func(*Spec) {}),
		"pilot epochs":   base(func(s *Spec) { s.Policy, s.Epochs = "rebalance", 8 }),
		"explicit epoch": base(func(s *Spec) { s.Policy, s.Epoch = "warmstart", sim.Millisecond }),
		"shed serve":     base(func(s *Spec) { serve(s); s.Protect = "shed" }),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	for name, s := range map[string]Spec{
		"unknown app":          base(func(s *Spec) { s.App = AppServe + 1 }),
		"zero nodes":           base(func(s *Spec) { s.Nodes = 0 }),
		"zero threads":         base(func(s *Spec) { s.Threads = 0 }),
		"scenario too wide":    base(func(s *Spec) { s.Scenario = &scenario.Scenario{CPUFactors: []float64{1, 1, 1, 1, 1}} }),
		"serve without stream": base(func(s *Spec) { s.App = AppServe }),
		"unknown protect":      base(func(s *Spec) { serve(s); s.Protect = "max" }),
		"protect closed-loop":  base(func(s *Spec) { s.Protect = "full" }),
		"unknown policy":       base(func(s *Spec) { s.Policy, s.Epochs = "wat", 8 }),
		"policy without epoch": base(func(s *Spec) { s.Policy = "rebalance" }),
		"negative epoch":       base(func(s *Spec) { s.Epoch = -sim.Millisecond }),
		// Stored profiles that profile.Validate rejects: 3 cells for a 2×2
		// map, and an assignment that names node 9 of 4.
		"profile short cells": base(func(s *Spec) {
			s.LoadProfile = &profile.Profile{Fingerprint: fp, TCMThreads: 2, TCMCells: []int64{0, 3, 3}}
		}),
		"profile names node 9": base(func(s *Spec) {
			s.LoadProfile = &profile.Profile{Fingerprint: fp, Assignment: []int{0, 9}}
		}),
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, name := range []string{"nop", "rebalance", "warmstart"} {
		if p, err := newPolicy(name, nil); err != nil || p.Name() != name {
			t.Errorf("policy %q built %v (err %v)", name, p, err)
		}
	}
}

// TestRobustConfigLevels pins what each protection level arms: nothing by
// default, deadlines and admission control for shed, and retries, hedging
// and breakers on top for full.
func TestRobustConfigLevels(t *testing.T) {
	if off := robustConfig(""); off != nil {
		t.Fatalf("default level armed %+v", off)
	}
	full := robustConfig("full")
	if full == nil || full.MaxRetries == 0 || full.BreakerThreshold == 0 || full.HedgeQuantile == 0 {
		t.Fatalf("full level missing mechanisms: %+v", full)
	}
	shed := robustConfig("shed")
	if shed == nil || shed.Deadline <= 0 || shed.Capacity <= 0 {
		t.Fatalf("shed level = %+v", shed)
	}
	if shed.MaxRetries != 0 || shed.HedgeQuantile != 0 || shed.BreakerThreshold != 0 {
		t.Fatalf("shed level armed extra mechanisms: %+v", shed)
	}
}
