package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestSmokeEachWorkload runs every workload for one timed iteration, and
// closedloop-kv's traced pass for one traced and one untraced block, with
// every output check on.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		rec, err := runPass(w, 42, 0, false, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(rec.Problems) > 0 || rec.Iterations != 1 {
			t.Errorf("%s: %d iterations, problems %v", w.name, rec.Iterations, rec.Problems)
		}
		if _, err := resultLine(rec); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	w, _ := workloadByName("closedloop-kv")
	rec, err := runPass(w, 42, 0, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Problems) > 0 {
		t.Errorf("traced closedloop-kv: problems %v", rec.Problems)
	}
	if _, err := resultLine(rec); err != nil {
		t.Error(err)
	}
	if rec.Metrics["trace.cpu_samples"].Value == 0 || rec.Metrics["session.step_ms"].Value == 0 {
		t.Errorf("traced pass recorded no CPU samples or step spans: %v", rec.Metrics)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which describes the
// benchmark to its runners, in step with the tables the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bj.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(bj.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, defined %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	var want []metric
	for _, d := range endToEnd {
		if d.Contract {
			bound := d.Bound
			want = append(want, metric{d.Name, d.Unit, better(d.Higher), &bound})
		}
	}
	if len(bj.EndToEnd) != len(want) {
		t.Fatalf("end_to_end lists %d metrics, want %d", len(bj.EndToEnd), len(want))
	}
	for i := range want {
		g, w := bj.EndToEnd[i], want[i]
		if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound == nil || *g.Bound != *w.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v bound %g", i, g, w, *w.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer lists %d metrics, want %d", len(bj.PerLayer), len(perLayer))
	}
	for i, c := range perLayer {
		g := bj.PerLayer[i]
		if g.Name != c.Name || g.Unit != c.Unit || g.Better != better(c.Higher) || g.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, g, c)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-workload", "no-such-workload"},
		{"extra"},
		{"-compare", "only-one-set"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &out); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
