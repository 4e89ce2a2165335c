package experiments

import (
	"fmt"

	"jessica2/internal/gos"
	"jessica2/internal/runner"
	"jessica2/internal/scenario"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// --- Figure G (serving through failures) -------------------------------------
//
// Figure R shows the *runtime* surviving node failures; Figure T shows the
// *serving path* under open-loop arrivals. Figure G is their product: burst
// arrivals over a cluster that crashes mid-run, judged on what a service
// owner is judged on — goodput within the SLO and tail latency. It sweeps
// three protection levels over each failure schedule:
//
//   - none: the raw serving path. Requests sticky-routed to a crashed
//     node's workers queue behind a CPU crawling at the crash factor, so
//     the tail collapses into hundreds of milliseconds and every one of
//     those requests still counts as "served".
//   - shed:  deadline + admission control only (workload.RobustConfig with
//     Capacity, nothing else). Requests that cannot finish are priced at
//     the deadline instead of unboundedly queueing — the tail is capped at
//     the SLO, but everything stranded on the dead node is still lost.
//   - full:  the whole stack — deadlines, shedding, bounded retries,
//     quantile-delayed hedging, and circuit breakers fed by the failure
//     detector (armed only here: breakers are the request-level consumer
//     of the declare-dead push). Stranded work is rerouted to live
//     replicas inside the deadline.
//
// The acceptance bar (Violations) requires the full stack to strictly beat
// both weaker levels on goodput-within-SLO *and* on P99, on every failure
// schedule, with no request leaking from the terminal-state ledger.

// FigGModes is the protection-level axis of the sweep, in row order.
var FigGModes = []string{"none", "shed", "full"}

// FigGSchedules is the failure-schedule axis: every schedule is combined
// with the same burst arrival process.
var FigGSchedules = []string{"crash", "flaky"}

// figGDeadline is the per-request SLO all three protection levels are
// judged against.
const figGDeadline = 20 * sim.Millisecond

// figGScenario is the failure schedule × burst arrival combo over the
// Figure T horizon. The crash schedule kills node 1 for good at a quarter
// horizon; the flaky schedule takes node 1 down for a quarter horizon and
// node 2 for an eighth.
func figGScenario(sched string, sc Scale) *scenario.Scenario {
	scen := &scenario.Scenario{
		Name:     "figG/" + sched,
		Seed:     figSeed,
		Arrivals: figTArrivals("burst", sc),
	}
	switch sched {
	case "crash":
		scen.Crashes = []scenario.Crash{
			{Node: 1, At: figTHorizon / 4},
		}
	case "flaky":
		scen.Crashes = []scenario.Crash{
			{Node: 1, At: figTHorizon / 4, Restart: figTHorizon / 2},
			{Node: 2, At: figTHorizon * 5 / 8, Restart: figTHorizon * 3 / 4},
		}
	default:
		panic("figG: unknown schedule " + sched)
	}
	return scen
}

// figGRobust builds the protection level's serving config.
func figGRobust(mode string) *workload.RobustConfig {
	switch mode {
	case "none":
		return nil
	case "shed":
		return &workload.RobustConfig{Deadline: figGDeadline, Capacity: 16}
	case "full":
		rc := workload.DefaultRobustConfig()
		rc.Deadline = figGDeadline
		rc.Capacity = 16
		return rc
	default:
		panic("figG: unknown mode " + mode)
	}
}

// FigGRow is one (schedule, protection-level) measurement.
type FigGRow struct {
	workload.ServeStats
	// Failure-layer work under the full stack (zero elsewhere).
	LeaseExpiries, Evacuations int64
}

// terminal is the number of requests that reached a terminal state.
func (row *FigGRow) terminal() int {
	return row.Completed + int(row.Shed+row.DeadlineExceeded+row.FailedFast)
}

// FigG runs the serving-through-failures sweep at the given dataset scale,
// fanning the schedule × protection-level grid through the pool.
func FigG(sc Scale, p *runner.Pool) *Result[FigGRow] { return figGGrid(sc).Sweep(p) }

// figGCell is the ServeMix cell of one failure schedule and protection
// level, and the workload it serves.
func figGCell(sc Scale, sched, mode string) (sessionCell, *workload.ServeMix) {
	w := figTServeMix()
	w.Robust = figGRobust(mode)
	if w.Robust == nil {
		// The unprotected baseline still reports against the same SLO,
		// so goodput-within-SLO is comparable across all three levels.
		w.SLO = figGDeadline
	}
	cell := sessionCell{load: w, spec: figSpec(figGScenario(sched, sc))}
	cell.spec.Tracking, cell.spec.Rate = gos.TrackingOff, 0
	cell.spec.Epoch = figTHorizon / FigTEpochs
	if mode == "full" {
		// Leases expire in a fraction of the request deadline, so
		// breakers open while stranded requests can still be rescued.
		cell.spec.Failure = failureConfig(figGDeadline / 5)
	}
	return cell, w
}

func figGGrid(sc Scale) *Grid[FigGRow] {
	gput := func(r *FigGRow) float64 { return r.SLOGoodputPerSec }
	showGput := func(r *FigGRow) string { return fmt.Sprintf("%.0f/s", r.SLOGoodputPerSec) }
	p99 := func(r *FigGRow) float64 { return float64(r.LatencyP99) }
	showP99 := func(r *FigGRow) string { return r.LatencyP99.String() }
	var claims []Claim[FigGRow]
	for _, weaker := range []string{"none", "shed"} {
		claims = append(claims,
			Claim[FigGRow]{Label: "SLO goodput", Winner: "full", Over: weaker, Better: Higher, Value: gput, Show: showGput},
			Claim[FigGRow]{Label: "P99", Winner: "full", Over: weaker, Better: Lower, Value: p99, Show: showP99})
	}
	return &Grid[FigGRow]{
		Title:  fmt.Sprintf("FIGURE G. SERVING THROUGH FAILURES (ServeMix, 4 nodes, 8 threads, %v SLO, seed %d)", figGDeadline, figSeed),
		Groups: FigGSchedules,
		Modes:  FigGModes,
		Keys:   []string{"Schedule", "Protect"},
		Columns: []Column[FigGRow]{
			{"Done", func(r *FigGRow) string { return fmt.Sprintf("%d/%d", r.Completed, r.Arrived) }},
			{"SLO Gput", showGput},
			{"P50", func(r *FigGRow) string { return r.LatencyP50.String() }},
			{"P99", showP99},
			{"Max", func(r *FigGRow) string { return r.LatencyMax.String() }},
			{"Shed", func(r *FigGRow) string { return fmt.Sprint(r.Shed) }},
			{"Expired", func(r *FigGRow) string { return fmt.Sprint(r.DeadlineExceeded) }},
			{"Retry", func(r *FigGRow) string { return fmt.Sprint(r.Retried) }},
			{"Hedge", func(r *FigGRow) string { return fmt.Sprint(r.Hedged) }},
			{"Reroute", func(r *FigGRow) string { return fmt.Sprint(r.Rerouted) }},
			{"Brk Open", func(r *FigGRow) string { return fmt.Sprint(r.BreakerOpens) }},
		},
		// No placement policy runs: the figure isolates the request-lifecycle
		// layer, not the optimizer.
		Run: func(sched, mode string, _ *FigGRow) (FigGRow, error) {
			cell, w := figGCell(sc, sched, mode)
			s, exec, err := cell.run()
			if err != nil {
				return FigGRow{}, err
			}
			fs := s.Kernel().FailureStats()
			row := FigGRow{LeaseExpiries: fs.LeaseExpiries, Evacuations: fs.Evacuations}
			w.ServeStatsInto(&row.ServeStats, exec)
			return row, nil
		},
		Pre: func(g GroupRows[FigGRow]) []string {
			none := g.Row("none")
			out := unserved(g.Name, "none", none.Completed, none.Arrived)
			for _, mode := range []string{"shed", "full"} {
				if row := g.Row(mode); row.terminal() != row.Arrived || row.Completed == 0 {
					out = append(out, fmt.Sprintf("%s/%s: %d of %d requests reached a terminal state",
						g.Name, mode, row.terminal(), row.Arrived))
				}
			}
			return out
		},
		Claims: claims,
		Post: func(g GroupRows[FigGRow]) (out []string) {
			full := g.Row("full")
			if full.Retried+full.Hedged+full.Rerouted == 0 {
				out = append(out, fmt.Sprintf("%s: full stack never retried, hedged, or rerouted", g.Name))
			}
			if full.BreakerOpens == 0 {
				out = append(out, fmt.Sprintf("%s: no breaker ever opened despite the failure schedule", g.Name))
			}
			return out
		},
	}
}
