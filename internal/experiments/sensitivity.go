package experiments

import (
	"fmt"

	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/runner"
	"jessica2/internal/sampling"
	"jessica2/internal/scenario"
	"jessica2/internal/sim"
	"jessica2/internal/tcm"
)

// --- Figure S (scenario sensitivity) -----------------------------------------
//
// The paper evaluates adaptive sampling on a uniform, fault-free cluster.
// Figure S is our extension: the same profiling configurations run under
// the fault-injection scenario engine's perturbation schedules, measuring
// how fixed-rate and adaptive sampling respond to heterogeneous CPUs,
// noisy neighbors and phase-shifting workloads. The sweep runs the KVMix
// workload (skewed, lock-heavy, phase-aware) per scenario in three modes:
// full-rate reference, fixed nX rate, and the adaptive controller.

// FigSScenarios is the sweep's scenario axis ("none" = unperturbed baseline).
var FigSScenarios = []string{"none", "hetero", "noisy", "phased", "storm"}

// FigSFixedRate is the fixed-mode sampling rate the adaptive mode competes
// against.
const FigSFixedRate = sampling.Rate(4)

// FigSRow is one (scenario, mode) measurement; the modes are "full",
// "fixed-4X" and "adaptive".
type FigSRow struct {
	Exec      sim.Time
	FinalRate sampling.Rate
	// RateRaises counts adaptive controller rate changes (0 for the
	// non-adaptive modes).
	RateRaises int
	// AccuracyABS is 1 − E_ABS against the full-rate map of the same
	// scenario (1.0 for the reference itself).
	AccuracyABS float64
	OALKB       float64
}

// FigSResult holds the sensitivity sweep. Its runs go through RunAll like
// every other figure's; only the row lookup and the grouped table come from
// the strict-win grid.
type FigSResult struct{ Result[FigSRow] }

// figSSpec builds the common run spec for one scenario/mode cell. Each cell
// gets a freshly built scenario so seeded streams never leak across runs.
func figSSpec(sc Scale, seed uint64, scenarioName string) Spec {
	spec := Spec{
		App: AppKVMix, Scale: sc, Nodes: 4, Threads: 8, Seed: seed,
		Tracking: gos.TrackingSampled, TransferOALs: true,
	}
	if scenarioName != "none" {
		s, err := scenario.Preset(scenarioName, spec.Nodes, seed)
		if err != nil {
			panic(err)
		}
		spec.Scenario = s
	}
	return spec
}

// FigS runs the sensitivity sweep at the given dataset scale. Every
// (scenario, mode) cell is an independent run — each gets a freshly built
// scenario and its own adaptive-controller config — so all fifteen fan out
// through the pool; the accuracy comparisons against each scenario's
// full-rate reference happen in the positional fold.
func FigS(sc Scale, p *runner.Pool) *FigSResult {
	const seed = 42
	specs := make([]Spec, 0, 3*len(FigSScenarios))
	for _, name := range FigSScenarios {
		// Full-rate reference for this scenario.
		fullSpec := figSSpec(sc, seed, name)
		fullSpec.Rate = sampling.FullRate

		// Fixed-rate mode.
		fixedSpec := figSSpec(sc, seed, name)
		fixedSpec.Rate = FigSFixedRate

		// Adaptive mode: start coarse, let the controller walk the ladder.
		adSpec := figSSpec(sc, seed, name)
		ad := core.DefaultAdaptiveConfig()
		ad.Window = 2 * sim.Millisecond // KVMix runs are short; decide often
		adSpec.Adaptive = &ad

		specs = append(specs, fullSpec, fixedSpec, adSpec)
	}
	outs := RunAll(p, specs)

	fixedMode := fmt.Sprintf("fixed-%v", FigSFixedRate)
	res := &FigSResult{Result[FigSRow]{Grid: &Grid[FigSRow]{
		Title:  fmt.Sprintf("FIGURE S. SAMPLING SENSITIVITY UNDER FAULT-INJECTION SCENARIOS (KVMix, 8 threads, seed %d)", seed),
		Groups: FigSScenarios,
		Modes:  []string{"full", fixedMode, "adaptive"},
		Keys:   []string{"Scenario", "Mode"},
		Columns: []Column[FigSRow]{
			{"Exec", func(r *FigSRow) string { return r.Exec.String() }},
			{"Final Rate", func(r *FigSRow) string { return r.FinalRate.String() }},
			{"Raises", func(r *FigSRow) string { return fmt.Sprint(r.RateRaises) }},
			{"Accuracy/ABS", func(r *FigSRow) string { return fmt.Sprintf("%.2f%%", r.AccuracyABS*100) }},
			{"OAL KB", func(r *FigSRow) string { return fmt.Sprintf("%.1f", r.OALKB) }},
		},
	}}}
	add := func(name, mode string, row FigSRow) {
		res.Cells = append(res.Cells, Cell[FigSRow]{Group: name, Mode: mode, Row: row})
	}
	for si, name := range FigSScenarios {
		full, fixed, adaptive := outs[3*si], outs[3*si+1], outs[3*si+2]
		add(name, "full", FigSRow{
			Exec:      full.Exec,
			FinalRate: sampling.FullRate, AccuracyABS: 1,
			OALKB: full.OALKB(),
		})
		add(name, fixedMode, FigSRow{
			Exec:        fixed.Exec,
			FinalRate:   FigSFixedRate,
			AccuracyABS: tcm.Accuracy(tcm.DistanceABS(fixed.TCM, full.TCM)),
			OALKB:       fixed.OALKB(),
		})
		// The controller starts at 1X.
		raises := 0
		finalRate := sampling.Rate(1)
		for _, rc := range adaptive.Profiler.RateTrace {
			if rc.To != rc.From {
				raises++
			}
			finalRate = rc.To
		}
		add(name, "adaptive", FigSRow{
			Exec:      adaptive.Exec,
			FinalRate: finalRate, RateRaises: raises,
			AccuracyABS: tcm.Accuracy(tcm.DistanceABS(adaptive.TCM, full.TCM)),
			OALKB:       adaptive.OALKB(),
		})
	}
	return res
}
