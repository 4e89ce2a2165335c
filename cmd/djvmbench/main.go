// Command djvmbench regenerates the paper's tables and figures on the
// simulated distributed JVM.
//
// Usage:
//
//	djvmbench -all                    # every table and figure, paper scale
//	djvmbench -table 2 -scale 4       # one table at 1/4 dataset scale
//	djvmbench -fig 9 -csv             # figure 9 as CSV series
//	djvmbench -all -parallel 4        # fan runs out over 4 workers
//	djvmbench -benchjson BENCH_current.json # machine-readable perf report
//
// Paper scale (-scale 1) reproduces the exact datasets (SOR 2K×2K,
// Barnes-Hut 4K bodies, Water-Spatial 512 molecules); larger -scale values
// shrink datasets proportionally for quick runs.
//
// Every experiment is a set of independent seed-deterministic simulations;
// -parallel N fans them out over N workers (default GOMAXPROCS) through the
// parallel experiment runner and collects results in submission order, so
// the rendered tables and figures are byte-identical to -parallel 1 — only
// regeneration wall-clock changes.
//
// -benchjson measures every table/figure regeneration with the testing
// package's benchmark driver and writes ns/op, bytes/op and allocs/op per
// experiment — plus the total regeneration wall-clock and the parallelism
// it ran at — as a single-run JSON report. A PR claiming a perf delta
// combines two such runs under "baseline"/"optimized" keys in its committed
// BENCH_<pr>.json artifact (see EXPERIMENTS.md and BENCH_1.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"jessica2/internal/experiments"
	"jessica2/internal/metrics"
	"jessica2/internal/runner"
)

// benchResult is one experiment's measurement in the -benchjson report.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchReport is the top-level -benchjson document.
type benchReport struct {
	Scale     int    `json:"scale"`
	GoVersion string `json:"go_version"`
	// Parallel is the runner pool width the experiments ran at; CPUs is the
	// host's GOMAXPROCS, for judging how much fan-out could actually bite.
	Parallel int `json:"parallel"`
	CPUs     int `json:"cpus"`
	// WallClockMs is the end-to-end wall-clock of regenerating everything
	// once, back to back — the number the parallel runner exists to shrink.
	WallClockMs float64       `json:"wall_clock_ms"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

// benchCases lists every regeneration the report measures.
func benchCases(sc experiments.Scale, p *runner.Pool) []struct {
	name string
	fn   func()
} {
	return []struct {
		name string
		fn   func()
	}{
		{"Table1", func() { experiments.Table1(sc) }},
		{"Table2", func() { experiments.Table2(sc, p) }},
		{"Table3", func() { experiments.Table3(sc, p) }},
		{"Table4", func() { experiments.Table4(sc, p) }},
		{"Table5", func() { experiments.Table5(sc, p) }},
		{"Fig9", func() { experiments.Fig9(sc, p) }},
		{"Fig1", func() { experiments.Fig1(sc, p) }},
		{"FigS", func() { experiments.FigS(sc, p) }},
		{"FigCL", func() { experiments.FigCL(sc, p) }},
		{"FigR", func() { experiments.FigR(sc, p) }},
		{"FigT", func() { experiments.FigT(sc, p) }},
		{"FigG", func() { experiments.FigG(sc, p) }},
		{"FigW", func() { experiments.FigW(sc, p) }},
		// EpochSnapshot is the closed-loop epoch-rate probe: one KVMix/phased
		// run at fixed 2 ms epochs, every boundary paying the snapshot path
		// the incremental TCM maintenance feeds.
		{"EpochSnapshot", func() { experiments.ClosedLoopProbe(sc, "kv") }},
	}
}

// writeBenchJSON benchmarks every table and figure at the given scale and
// parallelism and writes the report to path.
func writeBenchJSON(path string, sc experiments.Scale, p *runner.Pool) error {
	cases := benchCases(sc, p)
	report := benchReport{
		Scale:     int(sc),
		GoVersion: runtime.Version(),
		Parallel:  p.Workers(),
		CPUs:      runtime.GOMAXPROCS(0),
	}
	// One timed end-to-end regeneration pass for the wall-clock headline.
	start := time.Now()
	for _, c := range cases {
		c.fn()
	}
	report.WallClockMs = float64(time.Since(start).Nanoseconds()) / 1e6
	fmt.Printf("full regeneration (scale 1/%d, parallel %d): %v\n",
		int(sc), p.Workers(), time.Since(start).Round(time.Millisecond))

	for _, c := range cases {
		fmt.Printf("benchmarking %s (scale 1/%d)...\n", c.name, int(sc))
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.fn()
			}
		})
		report.Benchmarks = append(report.Benchmarks, benchResult{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate table N (1-5)")
		fig       = flag.Int("fig", 0, "regenerate figure N (1 or 9)")
		figS      = flag.Bool("figS", false, "regenerate Figure S (scenario sensitivity sweep)")
		figCL     = flag.Bool("figCL", false, "regenerate Figure CL (closed-loop adaptation sweep)")
		figR      = flag.Bool("figR", false, "regenerate Figure R (failure resilience sweep); exits non-zero if recovery does not win")
		figT      = flag.Bool("figT", false, "regenerate Figure T (open-loop tail-latency sweep); exits non-zero if closed-loop placement does not win on P99")
		figG      = flag.Bool("figG", false, "regenerate Figure G (serving-through-failures sweep); exits non-zero if the full protection stack does not win on SLO goodput and P99")
		figW      = flag.Bool("figW", false, "regenerate Figure W (profile-guided warm-start sweep); exits non-zero if warm start does not cut convergence epochs and profiling charge")
		all       = flag.Bool("all", false, "regenerate everything")
		scale     = flag.Int("scale", 1, "dataset divisor (1 = paper scale)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		parallel  = flag.Int("parallel", 0, "experiment runner workers (0 = GOMAXPROCS, 1 = sequential)")
		benchjson = flag.String("benchjson", "", "benchmark every table/figure and write JSON perf report to this file")
	)
	flag.Parse()
	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "djvmbench: non-positive -scale %d\n", *scale)
		os.Exit(2)
	}
	sc := experiments.Scale(*scale)
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "djvmbench: negative -parallel %d\n", *parallel)
		os.Exit(2)
	}
	pool := runner.New(*parallel)
	if *benchjson != "" {
		if err := writeBenchJSON(*benchjson, sc, pool); err != nil {
			fmt.Fprintln(os.Stderr, "djvmbench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *benchjson)
		return
	}
	// Every regeneration renders one table. The strict-win figures after the
	// paper's double as assertions: each claim violation (e.g. recovery not
	// strictly beating no-recovery on a crash schedule) goes to stderr and
	// the run exits non-zero.
	type figure interface {
		Table() *metrics.Table
		Violations() []string
	}
	regens := []struct {
		on          bool
		flag, title string
		run         func() fmt.Stringer
	}{
		{*table == 1, "", "Table I", func() fmt.Stringer { return experiments.Table1(sc) }},
		{*table == 2, "", "Table II", func() fmt.Stringer { return experiments.Table2(sc, pool).Table() }},
		{*table == 3, "", "Table III", func() fmt.Stringer { return experiments.Table3(sc, pool).Table() }},
		{*table == 4, "", "Table IV", func() fmt.Stringer { return experiments.Table4(sc, pool).Table() }},
		{*table == 5, "", "Table V", func() fmt.Stringer { return experiments.Table5(sc, pool).Table() }},
		{*fig == 9, "", "Figure 9", func() fmt.Stringer { return experiments.Fig9(sc, pool).Table() }},
		{*fig == 1, "", "Figure 1", func() fmt.Stringer { return experiments.Fig1(sc, pool) }},
		{*figS, "figS", "Figure S", func() fmt.Stringer { return experiments.FigS(sc, pool) }},
		{*figCL, "figCL", "Figure CL", func() fmt.Stringer { return experiments.FigCL(sc, pool) }},
		{*figR, "figR", "Figure R", func() fmt.Stringer { return experiments.FigR(sc, pool) }},
		{*figT, "figT", "Figure T", func() fmt.Stringer { return experiments.FigT(sc, pool) }},
		{*figG, "figG", "Figure G", func() fmt.Stringer { return experiments.FigG(sc, pool) }},
		{*figW, "figW", "Figure W", func() fmt.Stringer { return experiments.FigW(sc, pool) }},
	}
	selected := *all || *table != 0 || *fig != 0
	for _, r := range regens {
		selected = selected || r.on
	}
	if !selected {
		flag.Usage()
		os.Exit(2)
	}
	emit := func(t fmt.Stringer) {
		type csver interface{ CSV() string }
		if *csv {
			if c, ok := t.(csver); ok {
				fmt.Println(c.CSV())
				return
			}
		}
		fmt.Println(t)
	}
	for _, r := range regens {
		if !*all && !r.on {
			continue
		}
		start := time.Now()
		fmt.Printf("== %s (scale 1/%d) ==\n", r.title, *scale)
		res := r.run()
		if g, ok := res.(figure); !ok {
			emit(res)
		} else {
			emit(g.Table())
			if vs := g.Violations(); len(vs) > 0 {
				for _, v := range vs {
					fmt.Fprintf(os.Stderr, "djvmbench: %s violation: %s\n", r.flag, v)
				}
				os.Exit(1)
			}
		}
		fmt.Printf("-- regenerated in %v --\n\n", time.Since(start).Round(time.Millisecond))
	}
}
