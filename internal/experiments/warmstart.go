package experiments

import (
	"fmt"

	"jessica2/internal/gos"
	"jessica2/internal/profile"
	"jessica2/internal/runner"
	"jessica2/internal/scenario"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// --- Figure W (profile-guided warm start) ------------------------------------
//
// Every closed-loop figure so far pays the full profiling bill on every run:
// the cold run samples at the full rate from epoch 0 and spends whole phases
// learning a placement the previous run already knew. Figure W measures the
// payoff of persisting that knowledge: the cold run saves its end-of-run
// profile (internal/profile), and a warm run reloads it — stored placement
// applied before epoch 0, TCM accumulator seeded, sampling gated down to the
// floor rate wherever the live run matches the profile (session.
// WarmStartPolicy). Per application the figure compares
//
//   - cold: the rebalance policy at the full sampling rate — the capture run
//     itself (arming Config.Profile.Save is byte-invisible, so the capture
//     run IS the cold measurement);
//   - warm: the same schedule restarted with the captured profile loaded and
//     the warm-start policy driving the divergence-gated rate.
//
// Two applications exercise the two allocation shapes: phase-shifting KVMix
// (closed-loop, records preallocated — the epoch-1 home replay lands
// immediately) and ServeMix under diurnal open-loop arrivals (objects
// allocate lazily per request — the replay no-ops and the closed-gate
// steering path re-homes hot objects as they surface).
//
// The acceptance bar (Violations) is strict on KVMix: the warm run must
// converge in strictly fewer epochs, must charge strictly less profiling
// overhead, and must finish within FigWEpsilon of the cold execution time.
// On ServeMix the bar is the charge reduction plus full request completion
// and tail latency within FigWServeEpsilon.

// FigWApps is the application axis of the sweep, in row order.
var FigWApps = []string{"KVMix/phased", "ServeMix/diurnal"}

// FigWModes is the mode axis of the sweep, in row order.
var FigWModes = []string{"cold", "warm"}

// FigWEpsilon bounds the warm run's closed-loop quality regression: warm
// execution time must stay within (1+ε) of cold.
const FigWEpsilon = 0.05

// FigWServeEpsilon bounds the warm run's open-loop quality regression: warm
// P99 latency must stay within (1+ε) of cold. The serve bar is looser than
// the batch bar because the warm run re-homes lazily allocated objects from
// floor-rate evidence as they surface instead of chasing them at the full
// rate.
const FigWServeEpsilon = 0.50

// figWEpoch is the closed-loop epoch length: fixed (no pilot calibration,
// matching ClosedLoopProbe) so the capture and warm runs step through
// identical boundary schedules and one sweep is one deterministic pass.
const figWEpoch = 2 * sim.Millisecond

// FigWRow is one (application, mode) measurement.
type FigWRow struct {
	// ConvergenceEpoch is the last epoch boundary that applied a placement
	// action (thread migration or object re-home): the epoch the run
	// stopped learning placement.
	ConvergenceEpoch int
	// ProfilingCharge is the simulated CPU spent on profiling: correlation
	// logging, object re-tagging after rate changes, and the master
	// analyzer's reorg + TCM accrual.
	ProfilingCharge sim.Time
	CorrLogs        int64
	Resampled       int64
	Exec            sim.Time
	ThreadMoves     int
	HomeMoves       int64
	// Completed/Arrived and LatencyP99 are the open-loop serving metrics
	// (zero for the closed-loop application).
	Arrived, Completed int
	LatencyP99         sim.Time
	// captured is the cold run's saved profile, which its warm run loads.
	captured *profile.Profile
}

// lastPlacementEpoch returns the last epoch boundary whose observed policy
// applied a placement action (Note == "" on a thread migration or object
// re-home) — the epoch the run stopped learning placement.
func lastPlacementEpoch(s *session.Session) int {
	last := 0
	for _, a := range s.Actions() {
		if a.Note != "" {
			continue
		}
		switch a.Action.(type) {
		case session.MigrateThread, session.RehomeObject:
			if a.Epoch > last {
				last = a.Epoch
			}
		}
	}
	return last
}

// profilingCharge totals the simulated CPU the run spent on profiling:
// correlation logging at the kernel's calibrated per-log cost, re-tagging
// cached objects after sampling-plan changes, and the master analyzer's
// OAL reorganization plus TCM accrual.
func profilingCharge(s *session.Session) sim.Time {
	k := s.Kernel()
	st := k.Stats()
	return sim.Time(st.CorrelationLogs)*gos.LogCost +
		sim.Time(st.ResampledObjs)*gos.ResampleCostPerObject +
		k.Master().ComputeTime()
}

// FigW runs the warm-start sweep at the given dataset scale: per
// application, one capture run (the cold measurement, profile saved at the
// end) fans out through the pool, then the warm runs reload the captured
// profiles in a second wave.
func FigW(sc Scale, p *runner.Pool) *Result[FigWRow] { return figWGrid(sc).Sweep(p) }

func figWGrid(sc Scale) *Grid[FigWRow] {
	showCharge := func(r *FigWRow) string { return r.ProfilingCharge.String() }
	return &Grid[FigWRow]{
		Title:  fmt.Sprintf("FIGURE W. PROFILE-GUIDED WARM START VS COLD START (4 nodes, 8 threads, seed %d)", figSeed),
		Groups: FigWApps,
		Modes:  FigWModes,
		Keys:   []string{"App", "Mode"},
		Columns: []Column[FigWRow]{
			{"Conv Epoch", func(r *FigWRow) string { return fmt.Sprint(r.ConvergenceEpoch) }},
			{"Prof Charge", showCharge},
			{"Corr Logs", func(r *FigWRow) string { return fmt.Sprint(r.CorrLogs) }},
			{"Resampled", func(r *FigWRow) string { return fmt.Sprint(r.Resampled) }},
			{"Exec", func(r *FigWRow) string { return r.Exec.String() }},
			{"P99", func(r *FigWRow) string {
				if r.Arrived > 0 {
					return r.LatencyP99.String()
				}
				return "-"
			}},
			{"Thr Moves", func(r *FigWRow) string { return fmt.Sprint(r.ThreadMoves) }},
			{"Home Moves", func(r *FigWRow) string { return fmt.Sprint(r.HomeMoves) }},
		},
		// The cold run is the capture run: the rebalance policy at the full
		// rate with Save armed. The warm run loads the capture, and the
		// warm-start policy gates the sampling rate from divergence.
		Base: "cold",
		Run: func(app, mode string, cold *FigWRow) (FigWRow, error) {
			var cell sessionCell
			var serve *workload.ServeMix
			switch app {
			case "KVMix/phased":
				cell = sessionCell{load: figCLKVMix(sc), preset: "phased", spec: figSpec(nil)}
				cell.spec.Epoch = figWEpoch
			case "ServeMix/diurnal":
				serve = figTServeMix()
				cell = sessionCell{
					load: serve,
					spec: figSpec(&scenario.Scenario{Name: "figW/diurnal", Seed: figSeed, Arrivals: figTArrivals("diurnal", sc)}),
				}
				cell.spec.Epoch = figTHorizon / FigTEpochs
			}
			if cold == nil {
				cell.spec.SaveProfile = true
				cell.policy = session.NewRebalancePolicy()
			} else {
				cell.spec.LoadProfile = cold.captured
				cell.policy = session.NewWarmStartPolicy(cold.captured)
			}
			s, exec, err := cell.run()
			if err != nil {
				return FigWRow{}, err
			}
			if w := s.ProfileWarning(); cold != nil && w != "" {
				return FigWRow{}, fmt.Errorf("warm run rejected its own capture: %s", w)
			}
			st := s.Kernel().Stats()
			row := FigWRow{
				ConvergenceEpoch: lastPlacementEpoch(s),
				ProfilingCharge:  profilingCharge(s),
				CorrLogs:         st.CorrelationLogs,
				Resampled:        st.ResampledObjs,
				Exec:             exec,
				ThreadMoves:      len(s.MigrationEngine().History),
				HomeMoves:        st.HomeMigrations,
			}
			if serve != nil {
				stats := serve.ServeStatsInto(nil, exec)
				row.Arrived, row.Completed = stats.Arrived, stats.Completed
				row.LatencyP99 = stats.LatencyP99
			}
			if cold == nil {
				row.captured, err = s.CapturedProfile()
			}
			return row, err
		},
		Claims: []Claim[FigWRow]{{
			Label: "profiling charge", Winner: "warm", Over: "cold", Better: Lower,
			Value: func(r *FigWRow) float64 { return float64(r.ProfilingCharge) }, Show: showCharge,
		}},
		Post: func(g GroupRows[FigWRow]) (out []string) {
			cold, warm := g.Row("cold"), g.Row("warm")
			switch g.Name {
			case "KVMix/phased":
				if warm.ConvergenceEpoch >= cold.ConvergenceEpoch {
					out = append(out, fmt.Sprintf("%s: warm converged at epoch %d, cold at %d",
						g.Name, warm.ConvergenceEpoch, cold.ConvergenceEpoch))
				}
				if max := sim.Time(float64(cold.Exec) * (1 + FigWEpsilon)); warm.Exec > max {
					out = append(out, fmt.Sprintf("%s: warm exec (%v) beyond cold (%v) + %.0f%%",
						g.Name, warm.Exec, cold.Exec, FigWEpsilon*100))
				}
			case "ServeMix/diurnal":
				for _, mode := range FigWModes {
					row := g.Row(mode)
					out = append(out, unserved(g.Name, mode, row.Completed, row.Arrived)...)
				}
				if max := sim.Time(float64(cold.LatencyP99) * (1 + FigWServeEpsilon)); warm.LatencyP99 > max {
					out = append(out, fmt.Sprintf("%s: warm P99 (%v) beyond cold (%v) + %.0f%%",
						g.Name, warm.LatencyP99, cold.LatencyP99, FigWServeEpsilon*100))
				}
			}
			return out
		},
	}
}
