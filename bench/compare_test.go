package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) and statistics.quantiles([1, 2], n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdictTable(t *testing.T) {
	lower := metricDef{Name: "run_s.p50", Bound: 0.10}
	higher := metricDef{Name: "sim_s_per_host_s", Higher: true, Bound: 0.10}
	exact := metricDef{Name: "sim_exec_ms"}
	points := metricDef{Name: "sim_tcm_accuracy_pct", Higher: true, Bound: 1, Abs: true}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, base, scale(base, 1.03), verdictOK},
		{"slower", lower, base, scale(base, 1.2), verdictRegressed},
		{"faster", lower, base, scale(base, 0.8), verdictImproved},
		{"less throughput", higher, base, scale(base, 0.8), verdictRegressed},
		{"more throughput", higher, base, scale(base, 1.2), verdictImproved},
		{"noisy", lower, []float64{1, 1.5, 0.6, 1.4, 0.7}, []float64{1.1, 0.5, 1.6, 0.8, 1.3}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{2.0, 2.6, 3.2}, []float64{1.0, 1.5, 1.9}, verdictImproved},
		{"deterministic equal", exact, []float64{536.5, 536.5}, []float64{536.5, 536.5}, verdictOK},
		{"deterministic worse", exact, []float64{536.5}, []float64{536.6}, verdictRegressed},
		{"deterministic spread", exact, []float64{536.5, 537, 536}, []float64{536.5}, verdictUnresolved},
		{"within a point", points, []float64{90.48}, []float64{89.6}, verdictOK},
		{"beyond a point", points, []float64{90.48}, []float64{89.2}, verdictRegressed},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareReportsRegressionAndDigests(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runS float64, digest string) string {
		rec := &passRecord{Workload: "closedloop-kv", Seed: 42, Iterations: 3, Digest: digest,
			Metrics: map[string]metricValue{"run_s.p50": {Value: runS, Unit: "s"}}}
		path := filepath.Join(dir, name)
		if err := writeResults(path, []*passRecord{rec}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a1.json", 0.100, "d1") + "," + write("a2.json", 0.101, "d1")
	same := write("b1.json", 0.1005, "d1") + "," + write("b2.json", 0.1002, "d1")
	slow := write("c1.json", 0.130, "d1") + "," + write("c2.json", 0.131, "d2")

	var out bytes.Buffer
	if code := runCompare(a, same, &out, &out); code != 0 {
		t.Fatalf("same code compared as different (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "identical in every pass") {
		t.Errorf("digest agreement not reported:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare(a, slow, &out, &out); code != 1 {
		t.Fatalf("regression not failed (exit %d):\n%s", code, out.String())
	}
	for _, want := range []string{verdictRegressed, "DIFFERS"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
