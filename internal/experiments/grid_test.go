package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"jessica2/internal/runner"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// TestFigViolationsFailurePaths feeds hand-built losing and missing rows
// into every figure's Violations and pins the exact message list: every
// figure holds at testScale, so the sweeps themselves never reach these
// branches.
func TestFigViolationsFailurePaths(t *testing.T) {
	ms := sim.Millisecond
	cl := func(epochs int, exec sim.Time) FigCLRow { return FigCLRow{Epochs: epochs, Exec: exec} }
	serve := func(arrived, completed int, p99 sim.Time) workload.ServeStats {
		return workload.ServeStats{Arrived: arrived, Completed: completed, LatencyP99: p99}
	}
	cases := []struct {
		name      string
		got, want []string
	}{
		{
			name: "FigCL",
			got: (&Result[FigCLRow]{Grid: figCLGrid(testScale), Cells: []Cell[FigCLRow]{
				{"KVMix/phased", "none", cl(1, 2*ms)},
				{"KVMix/phased", "one-shot", cl(2, 1*ms)},
				{"KVMix/phased", "closed-loop", cl(1, 3*ms)},
				{"KVMix/noisy", "none", cl(1, 2*ms)},
			}}).Violations(),
			want: []string{
				"KVMix/phased: closed-loop (3.000ms) did not beat none (2.000ms)",
				"KVMix/phased: closed-loop (3.000ms) did not beat one-shot (1.000ms)",
				"KVMix/phased: closed-loop never acted",
				"KVMix/phased: closed-loop ran 1 epochs",
				"KVMix/noisy: missing rows",
				"Synthetic/zipf/phased: missing rows",
				"Synthetic/zipf/noisy: missing rows",
			},
		},
		{
			name: "FigR",
			got: (&Result[FigRRow]{Grid: figRGrid(testScale, 100*ms), Cells: []Cell[FigRRow]{
				{"-", "crash-free", FigRRow{Exec: 100 * ms}},
				{"early-crash", "no-recovery", FigRRow{Exec: 2 * sim.Second}},
				{"early-crash", "recovery", FigRRow{Exec: 1 * sim.Second, Expiries: 1, Evacuations: 4}},
				{"late-crash", "no-recovery", FigRRow{Exec: 2 * sim.Second}},
				{"late-crash", "one-shot", FigRRow{Exec: 1 * sim.Second}},
				{"late-crash", "recovery", FigRRow{Exec: 3 * sim.Second}},
				{"double-crash", "no-recovery", FigRRow{Exec: 3 * sim.Second}},
				{"double-crash", "one-shot", FigRRow{Exec: 3 * sim.Second}},
				{"double-crash", "recovery", FigRRow{Exec: 1 * sim.Second, Expiries: 2}},
			}}).Violations(),
			want: []string{
				"early-crash: missing rows",
				"late-crash: recovery (3.000s) did not beat no-recovery (2.000s)",
				"late-crash: recovery (3.000s) did not beat one-shot (1.000s)",
				"late-crash: recovery never detected the crash",
				"no schedule ever evacuated a stranded thread",
			},
		},
		{
			name: "FigT",
			got: (&Result[FigTRow]{Grid: figTGrid(testScale), Cells: []Cell[FigTRow]{
				{"diurnal", "nop", FigTRow{ServeStats: serve(6, 5, 2*ms), HomeMoves: 3}},
				{"diurnal", "one-shot", FigTRow{ServeStats: serve(6, 6, 1*ms), HomeMoves: 3}},
				{"diurnal", "closed-loop", FigTRow{ServeStats: serve(0, 0, 3*ms)}},
				{"burst", "nop", FigTRow{ServeStats: serve(6, 6, 2*ms)}},
			}}).Violations(),
			want: []string{
				"diurnal/nop: served 5 of 6 requests",
				"diurnal/closed-loop: served 0 of 0 requests",
				"diurnal: closed-loop P99 (3.000ms) did not beat nop (2.000ms)",
				"diurnal: closed-loop P99 (3.000ms) did not beat one-shot (1.000ms)",
				"diurnal: closed-loop never re-homed an object",
				"burst: missing rows",
			},
		},
		{
			name: "FigG",
			got: func() []string {
				none := FigGRow{ServeStats: serve(6, 5, 2*ms)}
				none.SLOGoodputPerSec = 300
				shed := FigGRow{ServeStats: serve(6, 3, 1*ms)}
				shed.SLOGoodputPerSec, shed.Shed, shed.DeadlineExceeded = 250, 1, 1
				full := FigGRow{ServeStats: serve(6, 6, 3*ms)}
				full.SLOGoodputPerSec = 200
				return (&Result[FigGRow]{Grid: figGGrid(testScale), Cells: []Cell[FigGRow]{
					{"crash", "none", none}, {"crash", "shed", shed}, {"crash", "full", full},
					{"flaky", "none", none}, {"flaky", "full", full},
				}}).Violations()
			}(),
			want: []string{
				"crash/none: served 5 of 6 requests",
				"crash/shed: 5 of 6 requests reached a terminal state",
				"crash: full SLO goodput (200/s) did not beat none (300/s)",
				"crash: full P99 (3.000ms) did not beat none (2.000ms)",
				"crash: full SLO goodput (200/s) did not beat shed (250/s)",
				"crash: full P99 (3.000ms) did not beat shed (1.000ms)",
				"crash: full stack never retried, hedged, or rerouted",
				"crash: no breaker ever opened despite the failure schedule",
				"flaky: missing rows",
			},
		},
		{
			name: "FigW",
			got: (&Result[FigWRow]{Grid: figWGrid(testScale), Cells: []Cell[FigWRow]{
				{"KVMix/phased", "cold", FigWRow{ConvergenceEpoch: 10, ProfilingCharge: 5 * ms, Exec: 100 * ms}},
				{"KVMix/phased", "warm", FigWRow{ConvergenceEpoch: 10, ProfilingCharge: 6 * ms, Exec: 106 * ms}},
				{"ServeMix/diurnal", "cold", FigWRow{ProfilingCharge: 5 * ms, Arrived: 6, Completed: 6, LatencyP99: 2 * ms}},
				{"ServeMix/diurnal", "warm", FigWRow{ProfilingCharge: 4 * ms, Arrived: 6, Completed: 4, LatencyP99: 3100 * sim.Microsecond}},
			}}).Violations(),
			want: []string{
				"KVMix/phased: warm profiling charge (6.000ms) did not beat cold (5.000ms)",
				"KVMix/phased: warm converged at epoch 10, cold at 10",
				"KVMix/phased: warm exec (106.000ms) beyond cold (100.000ms) + 5%",
				"ServeMix/diurnal/warm: served 4 of 6 requests",
				"ServeMix/diurnal: warm P99 (3.100ms) beyond cold (2.000ms) + 50%",
			},
		},
		{
			name: "FigW/missing",
			got: (&Result[FigWRow]{Grid: figWGrid(testScale), Cells: []Cell[FigWRow]{
				{"KVMix/phased", "cold", FigWRow{}},
			}}).Violations(),
			want: []string{"KVMix/phased: missing rows", "ServeMix/diurnal: missing rows"},
		},
	}
	for _, c := range cases {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s violations:\n  got  %q\n  want %q", c.name, c.got, c.want)
		}
	}
}

// TestGridFailedCell runs a grid whose run function fails for one Base
// cell and one ordinary cell: each failure becomes a "<group>/<mode>:
// <err>" violation, the failed Base's group runs no other mode, and every
// other row still renders.
func TestGridFailedCell(t *testing.T) {
	g := &Grid[int]{
		Title:   "T",
		Groups:  []string{"a", "b", "c"},
		Modes:   []string{"x", "y"},
		Keys:    []string{"Group", "Mode"},
		Columns: []Column[int]{{"V", func(v *int) string { return fmt.Sprint(*v) }}},
		Base:    "x",
		Run: func(group, mode string, base *int) (int, error) {
			if group+mode == "bx" || group+mode == "cy" {
				return 0, errors.New("boom")
			}
			if base != nil {
				return *base + 1, nil
			}
			return 10, nil
		},
	}
	for _, p := range []*runner.Pool{nil, runner.New(3)} {
		res := g.Sweep(p)
		want := []string{"b/x: boom", "c/y: boom", "b: missing rows", "c: missing rows"}
		if got := res.Violations(); !slices.Equal(got, want) {
			t.Errorf("violations: got %q want %q", got, want)
		}
		table := strings.Join([]string{
			"T",
			"Group  Mode  V ",
			"---------------",
			"a      x     10",
			"       y     11",
			"c      x     10",
			"",
		}, "\n")
		if got := res.Table().String(); got != table {
			t.Errorf("table:\n%s\nwant:\n%s", got, table)
		}
	}
}
