package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"jessica2/internal/experiments"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// passRecord is what one pass of one workload reports.
type passRecord struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Trace      bool                   `json:"trace"`
	Iterations int                    `json:"iterations"`
	Failed     int                    `json:"failed"`
	WindowS    float64                `json:"window_s"`
	Digest     string                 `json:"sim_digest"`
	Metrics    map[string]metricValue `json:"metrics"`
	Problems   []string               `json:"problems,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *passRecord) set(name string, value float64, unit string) {
	r.Metrics[name] = metricValue{Value: value, Unit: unit}
}

// problem records a failed check once, however many iterations repeat it.
func (r *passRecord) problem(msg string) {
	if !slices.Contains(r.Problems, msg) {
		r.Problems = append(r.Problems, msg)
	}
}

// runPass runs one pass of w: the check phase, one untimed warm-up
// iteration, then timed iterations until the window has passed (or
// maxIters, when positive, have run). Every iteration uses the same seed,
// so each must reproduce the warm-up's simulated digest.
//
// A traced pass alternates blocks of traced and untraced iterations, each
// block lasting about a second: a CPU profile is started and stopped once
// per traced block, since stopping one waits for the profiler's next read,
// and the untraced blocks give the baseline for the tracing overhead.
func runPass(w *benchWorkload, seed uint64, window time.Duration, traced bool, maxIters int) (*passRecord, error) {
	rec := &passRecord{Workload: w.name, Seed: seed, Trace: traced, Metrics: make(map[string]metricValue)}
	rc := w.config(seed)
	var refs *references
	if rc.spec != nil {
		var err error
		if refs, err = makeReferences(*rc.spec); err != nil {
			return nil, err
		}
	}
	warm, err := runIteration(w.config(seed), seed, refs, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, p := range warm.problems {
		rec.problem(p)
	}
	// experiments.Run replaces seed 0 with its own default, so only other
	// seeds can be compared with it.
	if rc.spec != nil && seed != 0 {
		if err := checkSameRun(warm, experiments.Run(*rc.spec)); err != nil {
			rec.problem(err.Error())
		}
	}

	var tr *tracer
	block := 1
	if traced {
		tr = newTracer()
		block = max(1, int(time.Second/max(warm.run, time.Millisecond)))
	}
	var (
		setups, runs, tracedRuns []float64
		peaks                    []float64 // MB
		runSum, tracedSum        time.Duration
		simExec                  sim.Time
		terminal, epochs         int
		accesses                 float64
		mallocs, allocBytes      uint64
		ms0, ms1                 runtime.MemStats
		profiling                bool
		cals                     []float64
		lastCal                  time.Time
	)
	cal := newCalibrator()
	stopProfile := func() error {
		if !profiling {
			return nil
		}
		profiling = false
		return tr.stopCPU()
	}
	start := time.Now()
	for {
		var itTr *tracer
		if traced && (rec.Iterations/block)%2 == 1 {
			itTr = tr
			if !profiling {
				if err := tr.startCPU(); err != nil {
					return nil, fmt.Errorf("start CPU profile: %w", err)
				}
				profiling = true
			}
		} else if time.Since(lastCal) >= calEvery {
			cals = append(cals, cal.measure().Seconds())
			lastCal = time.Now()
		}
		// Peak RSS is taken per iteration: the process's lifetime peak
		// catches its worst GC timing, which grows with the iteration count.
		if err := resetPeakRSS(); err != nil {
			return nil, errors.Join(err, stopProfile())
		}
		runtime.ReadMemStats(&ms0)
		it, err := runIteration(w.config(seed), seed, refs, itTr)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, errors.Join(err, stopProfile())
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, errors.Join(err, stopProfile())
		}
		rec.Iterations++
		if rec.Iterations%block == 0 {
			if err := stopProfile(); err != nil {
				return nil, err
			}
		}
		if it.digest != warm.digest {
			it.problems = append(it.problems, fmt.Sprintf("sim_digest %016x differs from the warm-up's %016x", it.digest, warm.digest))
		}
		if len(it.problems) > 0 {
			rec.Failed++
			for _, p := range it.problems {
				rec.problem(p)
			}
		}
		if itTr != nil {
			tracedRuns = append(tracedRuns, it.run.Seconds())
			tracedSum += it.run
		} else {
			setups = append(setups, it.setup.Seconds())
			runs = append(runs, it.run.Seconds())
			runSum += it.run
			simExec += it.simExec
			terminal += it.terminal
			epochs += it.epochs
			accesses += it.values["gos.accesses"]
			mallocs += ms1.Mallocs - ms0.Mallocs
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			peaks = append(peaks, rss)
		}
		windowDone := time.Since(start) >= window && (!traced || (len(tracedRuns) > 0 && rec.Iterations%block == 0))
		if windowDone || (maxIters > 0 && rec.Iterations >= maxIters) {
			break
		}
	}
	if err := stopProfile(); err != nil {
		return nil, err
	}
	rec.WindowS = time.Since(start).Seconds()
	rec.Digest = fmt.Sprintf("%016x", warm.digest)
	cals = append(cals, cal.measure().Seconds())
	calibration := median(cals)
	rec.set("host.calibration_ms", 1000*calibration, "ms")
	// speed scales host times to the reference host: below 1 when this
	// host ran the calibration kernel slower than the reference did.
	speed := refCalibration.Seconds() / calibration

	// Simulated outcomes and counters repeat exactly (the digest checks
	// it), so the warm-up's stand for every iteration.
	for _, d := range endToEnd {
		if v, ok := warm.values[d.Name]; ok {
			rec.set(d.Name, v, d.Unit)
		}
	}
	_, serving := rc.load.(workload.OpenLoop)
	if !serving {
		rec.set("failed_pct", 100*float64(rec.Failed)/float64(rec.Iterations), "%")
	}
	for _, c := range counters {
		if !c.Host {
			rec.set(c.Name, warm.values[c.Name], c.Unit)
		}
	}
	runSecs := runSum.Seconds() * speed
	rec.set("gos.accesses_per_host_s", ratio(accesses, runSecs), "1/s")

	if !traced {
		iters := float64(len(runs))
		rec.set("setup_s", median(setups)*speed, "s")
		rec.set("run_s.p50", median(runs)*speed, "s")
		// p90 rather than p95: a 12 s window gives closedloop-kv 100 to 250
		// iterations, and p95 needs 200 to have ten beyond it.
		if p90, ok := nearestRank(runs, 0.90, 10); ok {
			rec.set("run_s.p90", p90*speed, "s")
		}
		rec.set("sim_s_per_host_s", simExec.Seconds()/runSecs, "sim_s/s")
		if serving {
			rec.set("requests_per_host_s", float64(terminal)/runSecs, "req/s")
		}
		if rc.policy != nil {
			rec.set("epochs_per_host_s", float64(epochs)/runSecs, "1/s")
		}
		rec.set("allocs_per_iter", float64(mallocs)/iters, "count")
		rec.set("alloc_mb_per_iter", float64(allocBytes)/iters/(1<<20), "MB")
		rec.set("peak_rss_mb", median(peaks), "MB")
		return rec, nil
	}

	for _, name := range spanNames {
		calls := tr.spans[name]
		v := 0.0
		if len(calls) > 0 {
			v = median(calls)
		}
		rec.set(name, v, "ms")
		if p95, ok := nearestRank(calls, 0.95, 10); ok {
			rec.set(name+".p95", p95, "ms")
		}
	}
	var observe float64
	for _, ms := range tr.spans["session.observe_ms"] {
		observe += ms
	}
	rec.set("session.observe_share", ratio(observe/1000, tracedSum.Seconds()), "share")
	overhead := 0.0
	if len(tracedRuns) > 0 && len(runs) > 0 {
		overhead = 100 * (median(tracedRuns)/median(runs) - 1)
	}
	rec.set("trace.overhead_pct", overhead, "%")
	var samples int64
	for _, c := range tr.cpu {
		samples += c
	}
	rec.set("trace.cpu_samples", float64(samples), "count")
	for _, b := range cpuBuckets {
		rec.set(b+".cpu_share", 0, "share")
	}
	for l, c := range tr.cpu {
		rec.set(l+".cpu_share", ratio(float64(c), float64(samples)), "share")
	}
	return rec, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB
// (2^20 bytes).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// resetPeakRSS sets the process's VmHWM back to its current resident set
// size, so the next read gives the peak since this call.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := f.Write([]byte("5")); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// orderedNames lists a record's metrics in print order: end-to-end, then
// the per-layer ledger, then anything else (span .p95 variants, extra
// layers) by name.
func orderedNames(r *passRecord) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(name string) {
		if _, ok := r.Metrics[name]; ok && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, d := range endToEnd {
		add(d.Name)
	}
	for _, c := range perLayer {
		add(c.Name)
	}
	var rest []string
	for name := range r.Metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}
