package main

import (
	"math"
	"sort"
)

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // a larger value is better
	// Bound is how far the metric may worsen before a change counts as a
	// regression: a share of the base median, or, with Abs, a distance in
	// the metric's own unit (percentage points). 0 on a deterministic
	// metric means any change at all.
	Bound float64
	Abs   bool
	// Contract marks the metrics BENCHMARK.json lists, which the result
	// line carries.
	Contract bool
}

// better names a metric's good direction as BENCHMARK.json spells it.
func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Host-time metrics are medians over the timed iterations,
// scaled to the reference host (see calibrator); sim_* metrics are
// simulated outcomes and repeat exactly for a seed. Only the metrics every
// workload reports and that are never 0 are Contract.
//
// The bounds hold across seeds, not just repeats of one: they are sized
// from the interquartile range of each Contract metric over ten seeds (see
// README.md).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25, Contract: true},
	{Name: "run_s.p50", Unit: "s", Bound: 0.25, Contract: true},
	{Name: "run_s.p90", Unit: "s", Bound: 0.25},
	{Name: "sim_s_per_host_s", Unit: "sim_s/s", Higher: true, Bound: 0.25, Contract: true},
	{Name: "requests_per_host_s", Unit: "req/s", Higher: true, Bound: 0.25},
	{Name: "epochs_per_host_s", Unit: "1/s", Higher: true, Bound: 0.25},
	{Name: "allocs_per_iter", Unit: "count", Bound: 0.10, Contract: true},
	{Name: "alloc_mb_per_iter", Unit: "MB", Bound: 0.10, Contract: true},
	{Name: "peak_rss_mb", Unit: "MB", Bound: 0.15, Contract: true},
	{Name: "sim_exec_ms", Unit: "sim_ms"},
	{Name: "sim_profiling_overhead_pct", Unit: "%", Abs: true},
	{Name: "sim_tcm_accuracy_pct", Unit: "%", Higher: true, Bound: 1, Abs: true},
	{Name: "sim_p50_ms", Unit: "sim_ms"},
	{Name: "sim_p99_ms", Unit: "sim_ms"},
	{Name: "sim_slo_goodput_per_s", Unit: "req/sim_s", Higher: true},
	{Name: "failed_pct", Unit: "%", Abs: true},
}

// layers are the modules under internal/ the CPU profile is folded into.
// failure (gos/failure.go) and robust (workload/robust.go) are single files
// that count as layers of their own.
var layers = []string{
	"sim", "network", "heap", "gos", "failure", "oal", "tcm", "sampling",
	"stack", "sticky", "core", "session", "balancer", "migration", "workload",
	"robust", "scenario", "profile", "dispatch", "xrand", "experiments",
}

// Buckets for CPU samples with no frame under internal/.
const (
	bucketGC    = "runtime.gc"
	bucketBench = "bench"
	bucketOther = "runtime.other"
)

// spanNames are the public calls the traced pass times, in call order.
var spanNames = []string{
	"session.new_ms", "scenario.schedule_ms", "workload.launch_ms", "core.attach_ms",
	"session.run_ms", "session.step_ms", "session.observe_ms",
	"tcm.build_ms", "workload.serve_stats_ms",
	"profile.capture_ms", "profile.encode_ms", "profile.decode_ms",
	"dispatch.encode_ms", "dispatch.decode_ms",
}

// ledgerEntry is one per-layer metric: a span, a CPU share, or a counter.
type ledgerEntry struct {
	Name, Unit string
	Higher     bool
	// Host marks a counter derived from host time, which is left out of
	// the simulated digest.
	Host bool
}

// counters are read from the layers' public stats after every iteration.
var counters = []ledgerEntry{
	{Name: "gos.accesses", Unit: "count"},
	{Name: "gos.accesses_per_host_s", Unit: "1/s", Higher: true, Host: true},
	{Name: "gos.faults", Unit: "count"},
	{Name: "gos.fault_kb", Unit: "KB"},
	{Name: "gos.false_invalid_ratio", Unit: "ratio"},
	{Name: "gos.diff_msgs", Unit: "count"},
	{Name: "gos.lock_acquires", Unit: "count"},
	{Name: "gos.barriers", Unit: "count"},
	{Name: "gos.intervals", Unit: "count"},
	{Name: "gos.home_migrations", Unit: "count"},
	{Name: "network.msgs", Unit: "count"},
	{Name: "network.kb", Unit: "KB"},
	{Name: "network.gos_kb", Unit: "KB"},
	{Name: "network.control_kb", Unit: "KB"},
	{Name: "network.oal_kb", Unit: "KB"},
	{Name: "network.migration_kb", Unit: "KB"},
	{Name: "network.dropped", Unit: "count"},
	{Name: "network.duplicated", Unit: "count"},
	{Name: "oal.records", Unit: "count"},
	{Name: "oal.entries", Unit: "count"},
	{Name: "oal.entries_per_kaccess", Unit: "ratio"},
	{Name: "tcm.ingested_entries", Unit: "count"},
	{Name: "tcm.objects", Unit: "count"},
	{Name: "tcm.sim_compute_ms", Unit: "sim_ms"},
	{Name: "sampling.final_rate", Unit: "rate"},
	{Name: "sampling.rate_changes", Unit: "count"},
	{Name: "sampling.converged", Unit: "bool"},
	{Name: "stack.activations", Unit: "count"},
	{Name: "stack.sim_cpu_ms", Unit: "sim_ms"},
	{Name: "sticky.footprint_kb", Unit: "KB"},
	{Name: "session.epochs", Unit: "count"},
	{Name: "session.actions", Unit: "count"},
	{Name: "session.action_applied_ratio", Unit: "ratio", Higher: true},
	{Name: "migration.thread_moves", Unit: "count"},
	{Name: "workload.arrived", Unit: "count"},
	{Name: "workload.completed", Unit: "count", Higher: true},
	{Name: "workload.in_slo", Unit: "count", Higher: true},
	{Name: "robust.shed", Unit: "count"},
	{Name: "robust.expired", Unit: "count"},
	{Name: "robust.failed_fast", Unit: "count"},
	{Name: "robust.retried", Unit: "count"},
	{Name: "robust.hedged", Unit: "count"},
	{Name: "robust.rerouted", Unit: "count"},
	{Name: "robust.breaker_opens", Unit: "count"},
	{Name: "robust.hedge_win_ratio", Unit: "ratio", Higher: true},
	{Name: "robust.useful_attempt_ratio", Unit: "ratio", Higher: true},
	{Name: "failure.heartbeats", Unit: "count"},
	{Name: "failure.lease_expiries", Unit: "count"},
	{Name: "failure.evacuations", Unit: "count"},
	{Name: "failure.flushes", Unit: "count"},
	{Name: "failure.flush_retries", Unit: "count"},
	{Name: "failure.lock_failovers", Unit: "count"},
	{Name: "failure.lock_reclaims", Unit: "count"},
	{Name: "failure.flush_ack_ratio", Unit: "ratio", Higher: true},
	{Name: "profile.bytes", Unit: "B"},
	{Name: "dispatch.bytes", Unit: "B"},
}

// cpuBuckets are the names CPU samples are folded into.
var cpuBuckets = append(append([]string(nil), layers...), bucketGC, bucketBench, bucketOther)

// perLayer is the per-layer ledger every traced pass reports, in print
// order: spans, tracing cost, CPU shares, then counters. A layer a workload
// does not exercise reads 0. Span .p95 variants are reported beside these
// where enough samples exist, but are not part of the fixed ledger.
var perLayer = func() []ledgerEntry {
	var out []ledgerEntry
	for _, s := range spanNames {
		out = append(out, ledgerEntry{Name: s, Unit: "ms"})
	}
	out = append(out,
		ledgerEntry{Name: "session.observe_share", Unit: "share"},
		ledgerEntry{Name: "trace.overhead_pct", Unit: "%"},
		ledgerEntry{Name: "trace.cpu_samples", Unit: "count", Higher: true})
	for _, b := range cpuBuckets {
		out = append(out, ledgerEntry{Name: b + ".cpu_share", Unit: "share"})
	}
	return append(out, counters...)
}()

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method, as Python's statistics.quantiles(xs, n=4) computes them. With a
// single value both quartiles are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// nearestRank returns the q-th percentile of xs by nearest rank, and
// whether at least minBeyond samples lie beyond it.
func nearestRank(xs []float64, q float64, minBeyond int) (float64, bool) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], len(s)-1-idx >= minBeyond
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
