package experiments

import (
	"fmt"
	"slices"

	"jessica2/internal/runner"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// --- Figure CL (closed-loop adaptation) --------------------------------------
//
// The paper profiles at runtime but only exploits the profile post hoc. The
// closed-loop session API closes that loop: at every epoch boundary a policy
// observes the incremental profile and migrates threads / re-homes objects
// while the run continues. Figure CL quantifies the payoff: for phase-rich
// workloads under fault-injection scenarios it compares
//
//   - none:        the passive baseline (no policy ever acts);
//   - one-shot:    the rebalance policy allowed to act at a single boundary
//     (the classic "profile once, then optimize" shape, applied online at
//     the run's midpoint);
//   - closed-loop: the rebalance policy acting at every boundary across
//     FigCLEpochs epochs, chasing the workload as it shifts.
//
// Epoch lengths are calibrated from the baseline's execution time so all
// modes step through comparable schedules. The acceptance bar is strict:
// closed-loop must beat both none and one-shot on execution time, must have
// acted, and must have run at least two epochs.

// FigCLScenarios is the scenario axis of the sweep.
var FigCLScenarios = []string{"phased", "noisy"}

// FigCLEpochs is the closed-loop mode's epoch count.
const FigCLEpochs = 8

// FigCLRow is one (workload/scenario, mode) measurement.
type FigCLRow struct {
	Epochs int
	Exec   sim.Time
	// Speedup is baseline exec / this mode's exec (1.0 for the baseline).
	Speedup float64
	// ThreadMoves / HomeMoves count applied migrations; Faults is the
	// kernel's remote object fault total.
	ThreadMoves int
	HomeMoves   int64
	Faults      int64
}

// figCLKVMix builds the phase-rich KVMix instance: rounds short relative to
// the phased scenario's 120 ms shifts, so each phase spans several rounds
// and an online policy has time to react inside a phase.
func figCLKVMix(sc Scale) workload.Workload {
	w := workload.NewKVMix()
	w.Keys, w.ValueSize = 2048, 128
	w.Rounds, w.TxnsPerRound, w.OpsPerTxn = 24, 24, 4
	w.HotSpan = 256
	if s := int(sc); s > 1 {
		w.TxnsPerRound /= s
		if w.TxnsPerRound < 8 {
			w.TxnsPerRound = 8
		}
	}
	return w
}

// figCLSynthetic builds the zipf-skewed synthetic: the hot objects all live
// in one thread's region (homed on one node), the canonical target for
// online home rebalancing.
func figCLSynthetic(sc Scale) workload.Workload {
	w := workload.NewSynthetic()
	w.Pattern = workload.PatternZipf
	w.Intervals = 16
	w.AccessesPerInterval = 1024
	w.WriteFraction = 0.4
	if s := int(sc); s > 1 {
		w.AccessesPerInterval /= s
		if w.AccessesPerInterval < 128 {
			w.AccessesPerInterval = 128
		}
	}
	return w
}

// oncePolicy passes through its inner policy's first acting boundary, then
// goes passive — the "one-shot" optimization mode.
type oncePolicy struct {
	inner session.Policy
	acted bool
}

func (p *oncePolicy) Name() string { return p.inner.Name() + "-once" }

func (p *oncePolicy) NeedsProfile() bool { return !p.acted && p.inner.NeedsProfile() }

func (p *oncePolicy) Observe(s *session.Snapshot) []session.Action {
	if p.acted {
		return nil
	}
	acts := p.inner.Observe(s)
	if len(acts) > 0 {
		p.acted = true
	}
	return acts
}

// FigCL runs the closed-loop sweep at the given dataset scale: the four
// baselines fan out through the pool first, then the eight policy runs
// whose epoch lengths derive from them.
func FigCL(sc Scale, p *runner.Pool) *Result[FigCLRow] { return figCLGrid(sc).Sweep(p) }

func figCLGrid(sc Scale) *Grid[FigCLRow] {
	// cells[i] is the (workload, scenario) pair behind groups[i].
	type cell struct {
		load, scen string
		make       func(Scale) workload.Workload
	}
	var cells []cell
	var groups []string
	for _, ld := range []struct {
		name string
		make func(Scale) workload.Workload
	}{{"KVMix", figCLKVMix}, {"Synthetic/zipf", figCLSynthetic}} {
		for _, scen := range FigCLScenarios {
			cells = append(cells, cell{ld.name, scen, ld.make})
			groups = append(groups, ld.name+"/"+scen)
		}
	}
	cellOf := func(group string) cell { return cells[slices.Index(groups, group)] }
	exec := func(r *FigCLRow) float64 { return float64(r.Exec) }
	showExec := func(r *FigCLRow) string { return r.Exec.String() }
	return &Grid[FigCLRow]{
		Title:  fmt.Sprintf("FIGURE CL. CLOSED-LOOP ADAPTATION VS ONE-SHOT VS NO MIGRATION (4 nodes, 8 threads, seed %d)", figSeed),
		Groups: groups,
		Modes:  []string{"none", "one-shot", "closed-loop"},
		Keys:   []string{"Workload", "Scenario", "Mode"},
		GroupCells: func(group string) []string {
			c := cellOf(group)
			return []string{c.load, c.scen}
		},
		Columns: []Column[FigCLRow]{
			{"Epochs", func(r *FigCLRow) string { return fmt.Sprint(r.Epochs) }},
			{"Exec", showExec},
			{"Speedup", func(r *FigCLRow) string { return fmt.Sprintf("%.3fx", r.Speedup) }},
			{"Thr Moves", func(r *FigCLRow) string { return fmt.Sprint(r.ThreadMoves) }},
			{"Home Moves", func(r *FigCLRow) string { return fmt.Sprint(r.HomeMoves) }},
			{"Faults", func(r *FigCLRow) string { return fmt.Sprint(r.Faults) }},
		},
		Base: "none",
		Run: func(group, mode string, base *FigCLRow) (FigCLRow, error) {
			c := cellOf(group)
			run := sessionCell{load: c.make(sc), preset: c.scen, spec: figSpec(nil)}
			row := FigCLRow{Epochs: 1, Speedup: 1}
			switch mode {
			case "one-shot":
				run.policy = &oncePolicy{inner: session.NewRebalancePolicy()}
				run.spec.Epoch = base.Exec / 2
				row.Epochs = 2
			case "closed-loop":
				run.policy = session.NewRebalancePolicy()
				run.spec.Epoch = base.Exec / FigCLEpochs
				row.Epochs = FigCLEpochs
			}
			s, ex, err := run.run()
			if err != nil {
				return row, err
			}
			row.Exec = ex
			row.Faults = s.Kernel().Stats().Faults
			row.HomeMoves = s.Kernel().Stats().HomeMigrations
			row.ThreadMoves = len(s.MigrationEngine().History)
			if base != nil {
				row.Speedup = float64(base.Exec) / float64(ex)
			}
			return row, nil
		},
		Claims: []Claim[FigCLRow]{
			{Winner: "closed-loop", Over: "none", Better: Lower, Value: exec, Show: showExec},
			{Winner: "closed-loop", Over: "one-shot", Better: Lower, Value: exec, Show: showExec},
		},
		Post: func(g GroupRows[FigCLRow]) (out []string) {
			loop := g.Row("closed-loop")
			if loop.ThreadMoves+int(loop.HomeMoves) == 0 {
				out = append(out, fmt.Sprintf("%s: closed-loop never acted", g.Name))
			}
			if loop.Epochs < 2 {
				out = append(out, fmt.Sprintf("%s: closed-loop ran %d epochs", g.Name, loop.Epochs))
			}
			return out
		},
	}
}

// ClosedLoopProbe runs one closed-loop cell to completion — KVMix or the
// zipf-skewed Synthetic under the phased scenario, rebalance policy, fixed
// 2 ms epochs (no pilot calibration, so one deterministic run) — and
// returns the finished session plus its execution time. It is the shared
// substrate of the epoch-rate benchmarks and the djvmbench epoch-snapshot
// case: a finished probe's master daemon holds a realistic ingested
// population for TCM micro-benchmarks, and the run itself exercises the
// per-boundary snapshot path once per epoch.
func ClosedLoopProbe(sc Scale, load string) (*session.Session, sim.Time) {
	var w workload.Workload
	switch load {
	case "kv", "kvmix":
		w = figCLKVMix(sc)
	default:
		w = figCLSynthetic(sc)
	}
	spec := figSpec(nil)
	spec.Epoch = 2 * sim.Millisecond
	s, exec, err := sessionCell{load: w, policy: session.NewRebalancePolicy(), preset: "phased", spec: spec}.run()
	if err != nil {
		panic(err)
	}
	return s, exec
}
