package experiments

import (
	"fmt"

	"jessica2/internal/runner"
	"jessica2/internal/scenario"
	"jessica2/internal/session"
	"jessica2/internal/sim"
)

// --- Figure R (failure resilience) -------------------------------------------
//
// The paper's profiling-and-optimization loop assumes a fail-free cluster.
// Figure R measures what the failure-tolerance layer buys when that
// assumption breaks: under seed-deterministic node-crash schedules it
// compares
//
//   - crash-free:  the unperturbed baseline (reference for slowdowns);
//   - no-recovery: the crash schedule with the classic fail-free runtime —
//     threads stranded on a crashed node crawl at the crash factor for the
//     rest of the run;
//   - one-shot:    the crash schedule with a single profile-driven placement
//     (the classic "profile once, optimize once" shape): the placement
//     cannot react to nodes that die, so stranded threads stay stranded;
//   - recovery:    the crash schedule with the failure layer armed
//     (heartbeat/lease detection, safe-point evacuation, reliable flushes)
//     and the rebalance policy acting every epoch behind a health gate
//     that vetoes placements onto dead nodes.
//
// Crash times and detector timings are calibrated from the crash-free
// baseline's execution time so every Scale steps through the same schedule
// shape, and the acceptance bar (Violations) is strict: recovery must beat
// both no-recovery and one-shot on every schedule.

// FigRModes is the mode axis of the sweep, in row order.
var FigRModes = []string{"crash-free", "no-recovery", "one-shot", "recovery"}

// FigRSchedules is the crash-schedule axis of the sweep.
var FigRSchedules = []string{"early-crash", "late-crash", "double-crash"}

// FigREpochs is the policy modes' epoch count relative to the baseline.
const FigREpochs = 8

// figRCrash kills node at num/den of the crash-free execution time.
type figRCrash struct {
	node     int
	num, den sim.Time
}

// figRCrashes gives each schedule's crashes. All are permanent (Restart 0):
// a transient outage lets even the fail-free runtime limp through, a
// permanent one separates recovery from hope.
var figRCrashes = map[string][]figRCrash{
	"early-crash":  {{1, 1, 4}},
	"late-crash":   {{2, 1, 2}},
	"double-crash": {{1, 1, 4}, {2, 1, 2}},
}

// HealthGate wraps an inner policy and vetoes actions that target nodes the
// failure detector currently reports dead: the inner planner balances load
// blindly, so after an evacuation it would happily migrate threads (or
// re-home hot objects) right back onto the crashed node. This is the
// snapshot Health view consumed as a policy input.
type HealthGate struct {
	Inner session.Policy
	// Vetoed counts dropped actions (observability for tables and tests).
	Vetoed int
}

// Name implements Policy.
func (p *HealthGate) Name() string { return p.Inner.Name() + "+healthgate" }

// NeedsProfile implements Policy.
func (p *HealthGate) NeedsProfile() bool { return p.Inner.NeedsProfile() }

// Observe implements Policy: it filters the inner policy's actions against
// the snapshot's node-health view.
func (p *HealthGate) Observe(snap *session.Snapshot) []session.Action {
	acts := p.Inner.Observe(snap)
	if snap.Health == nil {
		return acts
	}
	dead := make(map[int]bool)
	for _, nh := range snap.Health.Nodes {
		if !nh.Alive {
			dead[nh.Node] = true
		}
	}
	if len(dead) == 0 {
		return acts
	}
	kept := acts[:0]
	for _, a := range acts {
		switch act := a.(type) {
		case session.MigrateThread:
			if dead[act.To] {
				p.Vetoed++
				continue
			}
		case session.RehomeObject:
			if dead[act.To] {
				p.Vetoed++
				continue
			}
		}
		kept = append(kept, a)
	}
	return kept
}

// FigRRow is one (schedule, mode) measurement.
type FigRRow struct {
	Exec sim.Time
	// Slowdown is this mode's exec / the crash-free exec (1.0 baseline).
	Slowdown float64
	// Failure-layer work: lease expiries, evacuated threads, flush retries
	// plus abandonments (zero for the modes that run without the layer).
	Expiries    int64
	Evacuations int64
	FlushRetry  int64
	// ThreadMoves counts completed policy migrations; Vetoed counts
	// health-gated actions the policy was not allowed to take.
	ThreadMoves int
	Vetoed      int
}

// figRRun executes one cell and folds it against the crash-free execution
// time base (the pilot is its own base).
func figRRun(cell sessionCell, base sim.Time) (FigRRow, error) {
	s, exec, err := cell.run()
	if err != nil {
		return FigRRow{}, err
	}
	if base == 0 {
		base = exec
	}
	fs := s.Kernel().FailureStats()
	return FigRRow{
		Exec:        exec,
		Slowdown:    float64(exec) / float64(base),
		Expiries:    fs.LeaseExpiries,
		Evacuations: fs.Evacuations,
		FlushRetry:  fs.FlushRetries + fs.FlushesAbandoned,
		ThreadMoves: len(s.MigrationEngine().History),
	}, nil
}

// FigR runs the resilience sweep at the given dataset scale: one crash-free
// pilot to calibrate crash times, detector timings and epoch lengths, then
// three modes per crash schedule fanned out through the pool. The pilot
// renders as the first row, under schedule "-".
func FigR(sc Scale, p *runner.Pool) *Result[FigRRow] {
	pilot, err := figRRun(figRPilot(sc), 0)
	if err != nil {
		return &Result[FigRRow]{Grid: figRGrid(sc, 0), Failures: []string{"-/crash-free: " + err.Error()}}
	}
	res := figRGrid(sc, pilot.Exec).Sweep(p)
	res.Cells = append([]Cell[FigRRow]{{Group: "-", Mode: "crash-free", Row: pilot}}, res.Cells...)
	return res
}

// figRPilot is the crash-free KVMix cell that calibrates the sweep.
func figRPilot(sc Scale) sessionCell {
	return sessionCell{load: figCLKVMix(sc), spec: figSpec(nil)}
}

// figRCell is the KVMix cell of one crash schedule and mode, calibrated
// against the crash-free execution time base; gate is the recovery mode's
// health gate (nil in the other modes). The detector's timings scale with
// the run length: leases expire within a few percent of base, so
// detection latency does not dominate short CI-scale runs.
func figRCell(sc Scale, sched, mode string, base sim.Time) (cell sessionCell, gate *HealthGate) {
	epoch := base / FigREpochs
	if epoch <= 0 {
		epoch = sim.Millisecond
	}
	hb := base / 64
	if hb < 50*sim.Microsecond {
		hb = 50 * sim.Microsecond
	}
	scen := &scenario.Scenario{Name: "figR/" + sched, Seed: figSeed}
	for _, c := range figRCrashes[sched] {
		scen.Crashes = append(scen.Crashes, scenario.Crash{Node: c.node, At: base * c.num / c.den})
	}
	cell = sessionCell{load: figCLKVMix(sc), spec: figSpec(scen)}
	switch mode {
	case "one-shot":
		cell.policy = &oncePolicy{inner: session.NewRebalancePolicy()}
		cell.spec.Epoch = epoch
	case "recovery":
		gate = &HealthGate{Inner: session.NewRebalancePolicy()}
		cell.policy = gate
		cell.spec.Epoch = epoch
		cell.spec.Failure = failureConfig(hb)
	}
	return cell, gate
}

// figRGrid declares the crash-schedule sweep calibrated against the
// crash-free execution time base.
func figRGrid(sc Scale, base sim.Time) *Grid[FigRRow] {
	exec := func(r *FigRRow) float64 { return float64(r.Exec) }
	showExec := func(r *FigRRow) string { return r.Exec.String() }
	return &Grid[FigRRow]{
		Title:  fmt.Sprintf("FIGURE R. FAILURE RESILIENCE UNDER CRASH SCHEDULES (KVMix, 4 nodes, 8 threads, seed %d)", figSeed),
		Groups: FigRSchedules,
		Modes:  FigRModes[1:],
		Keys:   []string{"Schedule", "Mode"},
		Columns: []Column[FigRRow]{
			{"Exec", showExec},
			{"Slowdown", func(r *FigRRow) string { return fmt.Sprintf("%.3fx", r.Slowdown) }},
			{"Expiries", func(r *FigRRow) string { return fmt.Sprint(r.Expiries) }},
			{"Evac", func(r *FigRRow) string { return fmt.Sprint(r.Evacuations) }},
			{"Flush Retry", func(r *FigRRow) string { return fmt.Sprint(r.FlushRetry) }},
			{"Thr Moves", func(r *FigRRow) string { return fmt.Sprint(r.ThreadMoves) }},
			{"Vetoed", func(r *FigRRow) string { return fmt.Sprint(r.Vetoed) }},
		},
		Run: func(sched, mode string, _ *FigRRow) (FigRRow, error) {
			cell, gate := figRCell(sc, sched, mode, base)
			row, err := figRRun(cell, base)
			if gate != nil {
				row.Vetoed = gate.Vetoed
			}
			return row, err
		},
		Claims: []Claim[FigRRow]{
			{Winner: "recovery", Over: "no-recovery", Better: Lower, Value: exec, Show: showExec},
			{Winner: "recovery", Over: "one-shot", Better: Lower, Value: exec, Show: showExec},
		},
		Post: func(g GroupRows[FigRRow]) []string {
			if g.Row("recovery").Expiries == 0 {
				return []string{fmt.Sprintf("%s: recovery never detected the crash", g.Name)}
			}
			return nil
		},
		// Evacuation is asserted across the sweep, not per schedule: a crash
		// landing after the closed loop already migrated the node's threads
		// away legitimately finds nothing to evacuate.
		Final: func(gs []GroupRows[FigRRow]) []string {
			var evac int64
			for _, g := range gs {
				evac += g.Row("recovery").Evacuations
			}
			if evac == 0 {
				return []string{"no schedule ever evacuated a stranded thread"}
			}
			return nil
		},
	}
}
