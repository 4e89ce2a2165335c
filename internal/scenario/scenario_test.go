package scenario

import (
	"testing"

	"jessica2/internal/gos"
	"jessica2/internal/network"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

func TestRampFactorAt(t *testing.T) {
	r := Ramp{Param: RampLatency, Start: 100, End: 300, From: 1, To: 5}
	cases := []struct {
		at   sim.Time
		want float64
	}{
		{0, 1}, {100, 1}, {200, 3}, {300, 5}, {1000, 5},
	}
	for _, c := range cases {
		if got := r.factorAt(c.at); got != c.want {
			t.Errorf("factorAt(%d) = %g, want %g", c.at, got, c.want)
		}
	}
	// Degenerate window: an instantaneous step change at Start.
	d := Ramp{Start: 50, End: 50, From: 2, To: 9}
	if got := d.factorAt(40); got != 2 {
		t.Errorf("degenerate ramp before step = %g, want From 2", got)
	}
	if got := d.factorAt(60); got != 9 {
		t.Errorf("degenerate ramp after step = %g, want To 9", got)
	}
}

func TestShaperRampAndJitterBounds(t *testing.T) {
	sc := &Scenario{
		Seed: 7,
		Ramps: []Ramp{
			{Param: RampLatency, Start: 0, End: 1000, From: 1, To: 2},
			{Param: RampBandwidth, Start: 0, End: 1000, From: 1, To: 0.5},
		},
		Jitter: &Jitter{Amplitude: 100 * sim.Microsecond},
	}
	k := gos.NewKernel(gos.Config{Nodes: 2})
	sc.Apply(k, nil)

	// At end-of-ramp, latency doubled and bandwidth halved: base transfer
	// time for 1000 bytes should at least double, jitter adds < amplitude.
	base := k.Net.TransferTime(1000)
	sh := &shaper{ramps: sc.Ramps}
	noJit := sh.TransferTime(1000, 0, 1, 1000)
	if noJit < 2*network.Latency {
		t.Errorf("ramped latency %v < doubled base latency %v", noJit, 2*network.Latency)
	}
	if noJit <= base {
		t.Errorf("ramped transfer %v not slower than base %v", noJit, base)
	}
}

func TestMergeMultipliesCPUFactors(t *testing.T) {
	a := &Scenario{CPUFactors: []float64{1, 0.5}}
	b := &Scenario{CPUFactors: []float64{0.5, 1, 0.25}}
	m := Merge("m", 1, a, b)
	want := []float64{0.5, 0.5, 0.25}
	if len(m.CPUFactors) != len(want) {
		t.Fatalf("merged factors %v, want %v", m.CPUFactors, want)
	}
	for i := range want {
		if m.CPUFactors[i] != want[i] {
			t.Errorf("factor[%d] = %g, want %g", i, m.CPUFactors[i], want[i])
		}
	}
}

func TestPresetsValidateAndCoverAllKinds(t *testing.T) {
	kinds := make(map[string]bool)
	for _, name := range PresetNames {
		sc, err := Preset(name, 8, 42)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := sc.Validate(8); err != nil {
			t.Fatalf("Preset(%q) does not validate: %v", name, err)
		}
		for _, k := range sc.Kinds() {
			kinds[k] = true
		}
	}
	for _, want := range []string{"cpu-heterogeneity", "latency-ramp", "bandwidth-ramp", "jitter", "transient-slowdown", "phase-shift"} {
		if !kinds[want] {
			t.Errorf("no preset exercises perturbation kind %q", want)
		}
	}
	// Determinism: same (name, nodes, seed) -> same factors.
	a, _ := Preset("hetero", 8, 11)
	b, _ := Preset("hetero", 8, 11)
	for i := range a.CPUFactors {
		if a.CPUFactors[i] != b.CPUFactors[i] {
			t.Fatalf("hetero preset not deterministic at node %d", i)
		}
	}
	if _, err := Preset("bogus", 8, 1); err == nil {
		t.Error("Preset(bogus) should fail")
	}
}

func TestParseSpecs(t *testing.T) {
	if sc, err := Parse("none", 8, 1); err != nil || sc != nil {
		t.Errorf("Parse(none) = %v, %v; want nil, nil", sc, err)
	}
	sc, err := Parse("hetero, jitter", 8, 1)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ks := sc.Kinds()
	if len(ks) != 2 {
		t.Errorf("merged spec kinds = %v, want cpu-heterogeneity + jitter", ks)
	}
	if _, err := Parse("hetero,bogus", 8, 1); err == nil {
		t.Error("Parse with unknown preset should fail")
	}
	// "+" is an alias separator for failure×arrival combos; the merged
	// scenario must match the comma spelling (modulo the display name).
	plus, err := Parse("crash+burst", 4, 7)
	if err != nil {
		t.Fatalf("Parse(crash+burst): %v", err)
	}
	comma, err := Parse("crash,burst", 4, 7)
	if err != nil {
		t.Fatalf("Parse(crash,burst): %v", err)
	}
	if plus.Arrivals == nil || comma.Arrivals == nil {
		t.Fatal("combo lost the burst arrival spec")
	}
	if len(plus.Crashes) != len(comma.Crashes) || len(plus.Crashes) == 0 {
		t.Errorf("combo crashes: + form %d, comma form %d", len(plus.Crashes), len(comma.Crashes))
	}
	if plus.Name != "crash+burst" {
		t.Errorf("combo name = %q, want original spec", plus.Name)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []*Scenario{
		{CPUFactors: []float64{0}},
		{CPUFactors: []float64{1, 1, 1}},                       // 3 factors, 2 nodes
		{Ramps: []Ramp{{From: 0, To: 1}}},                      // zero factor
		{Ramps: []Ramp{{From: 1, To: 1, Start: 100, End: 50}}}, // inverted window
		{Slowdowns: []Slowdown{{Node: 5, At: 0, Duration: 1, Factor: 0.5}}},
		{Slowdowns: []Slowdown{{Node: 0, At: 0, Duration: 0, Factor: 0.5}}},
		{PhaseShifts: []PhaseShift{{At: -1}}},
	}
	for i, sc := range bad {
		if err := sc.Validate(2); err == nil {
			t.Errorf("bad scenario %d validated", i)
		}
	}
}

// TestSlowdownScalesNodeCPU drives a tiny two-node run and checks that the
// scheduled slowdown events actually change the resource speed.
func TestSlowdownScalesNodeCPU(t *testing.T) {
	k := gos.NewKernel(gos.Config{Nodes: 2})
	sc := &Scenario{
		Name:       "t",
		CPUFactors: []float64{1, 0.5},
		Slowdowns:  []Slowdown{{Node: 1, At: 10 * sim.Millisecond, Duration: 10 * sim.Millisecond, Factor: 0.5}},
	}
	var ph workload.Phase
	sc.Apply(k, &ph)
	cpu := k.Node(1).CPU()
	if got := cpu.Speed(); got != 0.5 {
		t.Fatalf("initial heterogeneous speed = %g, want 0.5", got)
	}
	var during, after float64
	k.Eng.Schedule(15*sim.Millisecond, func() { during = cpu.Speed() })
	k.Eng.Schedule(25*sim.Millisecond, func() { after = cpu.Speed() })
	k.Eng.Run()
	if during != 0.25 {
		t.Errorf("speed during slowdown = %g, want 0.25 (base 0.5 x factor 0.5)", during)
	}
	if after != 0.5 {
		t.Errorf("speed after recovery = %g, want base 0.5", after)
	}
}
