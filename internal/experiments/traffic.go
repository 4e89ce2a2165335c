package experiments

import (
	"fmt"

	"jessica2/internal/runner"
	"jessica2/internal/scenario"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// --- Figure T (open-loop traffic) --------------------------------------------
//
// Every other figure judges the runtime on execution time of a closed-loop
// batch. Figure T judges it the way a serving system is judged: requests
// arrive on an open-loop schedule whether or not the cluster keeps up, and
// the metric is tail latency. Under seed-deterministic diurnal and bursty
// arrival schedules (scenario.Arrivals driving workload.ServeMix) it
// compares
//
//   - nop:         the passive baseline — every shared object stays homed on
//     the loader's node, every remote worker faults on every request;
//   - one-shot:    the rebalance policy allowed to act at a single epoch
//     boundary early in the run ("profile once, optimize once"): the hot
//     tenant window keeps rotating after the single placement, so the
//     optimized homes go stale;
//   - closed-loop: the rebalance policy acting at every epoch boundary,
//     chasing the rotating hot window as the TCM reports it.
//
// The acceptance bar (Violations) is strict: on every schedule the
// closed-loop mode must beat both baselines on P99 latency, must actually
// have moved homes, and must finish every request.

// FigTModes is the mode axis of the sweep, in row order.
var FigTModes = []string{"nop", "one-shot", "closed-loop"}

// FigTSchedules is the arrival-schedule axis of the sweep.
var FigTSchedules = []string{"diurnal", "burst"}

// FigTEpochs is the number of epoch boundaries across the arrival horizon.
const FigTEpochs = 16

// figTHorizon is the arrival horizon of every serving figure; rates scale
// with 1/Scale, the horizon does not (the diurnal/burst shape must keep its
// period structure).
const figTHorizon = 2 * sim.Second

// figTArrivals builds the named arrival spec at the given dataset scale.
func figTArrivals(sched string, sc Scale) *scenario.Arrivals {
	scaleRate := func(r float64) float64 {
		if sc > 1 {
			r /= float64(sc)
		}
		if r < 200 {
			r = 200
		}
		return r
	}
	switch sched {
	case "diurnal":
		return &scenario.Arrivals{
			Kind:    scenario.ArriveDiurnal,
			Rate:    scaleRate(6000),
			Horizon: figTHorizon,
			Period:  figTHorizon / 2,
			Trough:  0.2,
		}
	case "burst":
		return &scenario.Arrivals{
			Kind:        scenario.ArriveBurst,
			Rate:        scaleRate(2500),
			Horizon:     figTHorizon,
			BurstEvery:  figTHorizon / 4,
			BurstLen:    figTHorizon / 16,
			BurstFactor: 4,
		}
	default:
		panic("figT: unknown schedule " + sched)
	}
}

// figTServeMix builds the serving workload: defaults, with the hot-window
// rotation pinned to a quarter horizon so each run sees four distinct hot
// sets — enough churn to strand a one-shot placement.
func figTServeMix() *workload.ServeMix {
	w := workload.NewServeMix()
	w.RotateEvery = figTHorizon / 4
	return w
}

// FigTRow is one (schedule, mode) measurement: the serving stats over the
// whole run on the simulated clock plus the placement work behind them.
type FigTRow struct {
	workload.ServeStats
	ThreadMoves int
	HomeMoves   int64
	Faults      int64
}

// FigT runs the open-loop traffic sweep at the given dataset scale: three
// policy modes per arrival schedule, fanned out through the pool. Unlike
// FigR there is no pilot wave — the schedule is fixed by the arrival spec,
// not calibrated from a baseline run.
func FigT(sc Scale, p *runner.Pool) *Result[FigTRow] { return figTGrid(sc).Sweep(p) }

func figTGrid(sc Scale) *Grid[FigTRow] {
	p99 := func(r *FigTRow) float64 { return float64(r.LatencyP99) }
	showP99 := func(r *FigTRow) string { return r.LatencyP99.String() }
	return &Grid[FigTRow]{
		Title:  fmt.Sprintf("FIGURE T. TAIL LATENCY UNDER OPEN-LOOP ARRIVALS (ServeMix, 4 nodes, 8 threads, seed %d)", figSeed),
		Groups: FigTSchedules,
		Modes:  FigTModes,
		Keys:   []string{"Schedule", "Mode"},
		Columns: []Column[FigTRow]{
			{"Done", func(r *FigTRow) string { return fmt.Sprintf("%d/%d", r.Completed, r.Arrived) }},
			{"Goodput", func(r *FigTRow) string { return fmt.Sprintf("%.0f/s", r.GoodputPerSec) }},
			{"P50", func(r *FigTRow) string { return r.LatencyP50.String() }},
			{"P95", func(r *FigTRow) string { return r.LatencyP95.String() }},
			{"P99", showP99},
			{"Max", func(r *FigTRow) string { return r.LatencyMax.String() }},
			{"Thr Moves", func(r *FigTRow) string { return fmt.Sprint(r.ThreadMoves) }},
			{"Home Moves", func(r *FigTRow) string { return fmt.Sprint(r.HomeMoves) }},
			{"Faults", func(r *FigTRow) string { return fmt.Sprint(r.Faults) }},
		},
		Run: func(sched, mode string, _ *FigTRow) (FigTRow, error) {
			w := figTServeMix()
			cell := sessionCell{
				load:   w,
				policy: session.NopPolicy{},
				spec:   figSpec(&scenario.Scenario{Name: "figT/" + sched, Seed: figSeed, Arrivals: figTArrivals(sched, sc)}),
			}
			cell.spec.Epoch = figTHorizon / FigTEpochs
			switch mode {
			case "one-shot":
				cell.policy = &oncePolicy{inner: session.NewRebalancePolicy()}
			case "closed-loop":
				cell.policy = session.NewRebalancePolicy()
			}
			s, exec, err := cell.run()
			if err != nil {
				return FigTRow{}, err
			}
			row := FigTRow{
				ThreadMoves: len(s.MigrationEngine().History),
				HomeMoves:   s.Kernel().Stats().HomeMigrations,
				Faults:      s.Kernel().Stats().Faults,
			}
			w.ServeStatsInto(&row.ServeStats, exec)
			return row, nil
		},
		Pre: func(g GroupRows[FigTRow]) (out []string) {
			for _, mode := range FigTModes {
				row := g.Row(mode)
				out = append(out, unserved(g.Name, mode, row.Completed, row.Arrived)...)
			}
			return out
		},
		Claims: []Claim[FigTRow]{
			{Label: "P99", Winner: "closed-loop", Over: "nop", Better: Lower, Value: p99, Show: showP99},
			{Label: "P99", Winner: "closed-loop", Over: "one-shot", Better: Lower, Value: p99, Show: showP99},
		},
		Post: func(g GroupRows[FigTRow]) []string {
			if g.Row("closed-loop").HomeMoves == 0 {
				return []string{fmt.Sprintf("%s: closed-loop never re-homed an object", g.Name)}
			}
			return nil
		},
	}
}
