package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"jessica2"
	"jessica2/internal/experiments"
)

func parse(t *testing.T, args ...string) (*runConfig, error) {
	t.Helper()
	return parseArgs(args, io.Discard)
}

func TestParseDefaults(t *testing.T) {
	rc, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if rc.app != "sor" || rc.spec.App != experiments.AppSOR ||
		rc.spec.Nodes != 8 || rc.spec.Threads != 8 || rc.spec.Seed != 42 {
		t.Fatalf("defaults: %+v", rc)
	}
	if rc.spec.Rate != jessica2.FullRate || rc.policyTag != "none" || rc.spec.Policy != "" || rc.scenSpec != "none" {
		t.Fatalf("defaults: rate=%v policy=%v scenario=%v", rc.spec.Rate, rc.policyTag, rc.scenSpec)
	}
}

func TestParseAppScenarioPolicyEpochCombos(t *testing.T) {
	rc, err := parse(t, "-app", "kv", "-scenario", "phased", "-policy", "rebalance", "-epochs", "8")
	if err != nil {
		t.Fatal(err)
	}
	if rc.spec.App != experiments.AppKVMix || rc.scenSpec != "phased" || rc.spec.Policy != "rebalance" || rc.spec.Epochs != 8 {
		t.Fatalf("combo: %+v", rc)
	}

	rc, err = parse(t, "-app", "lu", "-scenario", "hetero,noisy", "-policy", "nop", "-epoch", "5ms")
	if err != nil {
		t.Fatal(err)
	}
	if rc.spec.Policy != "nop" || rc.spec.Epoch != 5*jessica2.Millisecond {
		t.Fatalf("nop/epoch: policy=%v epoch=%v", rc.spec.Policy, rc.spec.Epoch)
	}

	// Policy "none" disables the closed loop regardless of epoch flags.
	rc, err = parse(t, "-policy", "none", "-epochs", "4")
	if err != nil {
		t.Fatalf("none: err=%v", err)
	}
	if rc.spec.Policy != "" {
		t.Fatalf("none resolved to policy %q", rc.spec.Policy)
	}
}

// TestSpecAppsBuildPaperScale: every -app alias resolves, in any case, to
// the app whose spec workload is the library's paper-scale constructor.
func TestSpecAppsBuildPaperScale(t *testing.T) {
	want := map[experiments.App]jessica2.Workload{
		experiments.AppSOR:          jessica2.NewSOR(),
		experiments.AppBarnesHut:    jessica2.NewBarnesHut(),
		experiments.AppWaterSpatial: jessica2.NewWaterSpatial(),
		experiments.AppLU:           jessica2.NewLU(),
		experiments.AppKVMix:        jessica2.NewKVMix(),
		experiments.AppSynthetic:    jessica2.NewSynthetic(),
		experiments.AppServe:        jessica2.NewServeMix(),
	}
	for alias, app := range apps {
		a, err := parseApp(strings.ToUpper(alias))
		if err != nil || a != app {
			t.Errorf("-app %s resolved to %v (err %v), want %v", alias, a, err, app)
			continue
		}
		if w := experiments.NewWorkload(a, false, 1); !reflect.DeepEqual(w, want[app]) {
			t.Errorf("-app %s built %+v, want %+v", alias, w, want[app])
		}
	}
	for a := experiments.AppSOR; a <= experiments.AppServe; a++ {
		if _, ok := want[a]; !ok {
			t.Errorf("%v has no paper-scale constructor in the test", a)
		}
	}
}

func TestParseRejections(t *testing.T) {
	cases := map[string][]string{
		"unknown app":          {"-app", "nosuch"},
		"unknown policy":       {"-policy", "wat"},
		"unknown scenario":     {"-scenario", "meteor"},
		"bad rate":             {"-rate", "-3"},
		"zero nodes":           {"-nodes", "0"},
		"zero threads":         {"-threads", "0"},
		"policy without epoch": {"-policy", "rebalance", "-epochs", "0"},
		"unknown flag":         {"-frobnicate"},
		"zero seeds":           {"-seeds", "0"},
		"negative seeds":       {"-seeds", "-2"},
		"negative parallel":    {"-parallel", "-1"},
		"profile-out + seeds":  {"-profile-out", "x.j2pf", "-seeds", "2"},
		"unknown protect":      {"-protect", "bogus"},
		"protect closed-loop":  {"-app", "sor", "-protect", "full"},
		"shed closed-loop":     {"-app", "kv", "-protect", "shed"},
	}
	for name, args := range cases {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("%s (%v): accepted", name, args)
		}
	}
}

// TestParseProtect pins the -protect grammar and the auto resolution: off
// unless -recover is armed on an open-loop app, where the full stack (and
// only then) is installed. experiments' TestRobustConfigLevels pins what
// each level arms.
func TestParseProtect(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, ""},
		{[]string{"-app", "serve"}, ""},
		{[]string{"-app", "serve", "-recover"}, "full"},
		// -recover on a closed-loop app must NOT arm serving protection.
		{[]string{"-app", "kv", "-recover"}, ""},
		{[]string{"-app", "serve", "-protect", "shed", "-scenario", "crash+burst"}, "shed"},
		// An explicit level overrides auto's recover coupling.
		{[]string{"-app", "serve", "-recover", "-protect", "off"}, ""},
	} {
		rc, err := parse(t, c.args...)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if rc.spec.Protect != c.want {
			t.Errorf("%v resolved to protection %q, want %q", c.args, rc.spec.Protect, c.want)
		}
	}
}

// TestParseScenarioPlusCombos: "+" and "," spell the same preset combo.
func TestParseScenarioPlusCombos(t *testing.T) {
	for _, spec := range []string{"crash+burst", "crash,burst", "flaky+burst"} {
		if _, err := parse(t, "-app", "serve", "-scenario", spec); err != nil {
			t.Errorf("-scenario %s rejected: %v", spec, err)
		}
	}
}

// TestExecuteRecoverServeSmoke is the end-to-end `-recover -app serve`
// path: crash+burst arrivals with the auto-armed full protection stack.
// The report must carry the serving line, the robustness tail, and the
// failure-layer tail, and the detector must actually have fired.
func TestExecuteRecoverServeSmoke(t *testing.T) {
	rc, err := parse(t,
		"-app", "serve", "-scenario", "crash+burst", "-recover",
		"-nodes", "4", "-threads", "8", "-rate", "off", "-tcm=false")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rc.execute(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"open-loop serving:",
		"serving robustness (full):",
		"recovery work:",
		"failure layer:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "failure layer: 0 lease expiries") {
		t.Errorf("crash schedule never hit the detector:\n%s", out)
	}
}

func TestParseSeedsParallelDefaults(t *testing.T) {
	rc, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if rc.seeds != 1 || rc.parallel != 0 {
		t.Fatalf("defaults: seeds=%d parallel=%d", rc.seeds, rc.parallel)
	}
	rc, err = parse(t, "-seeds", "4", "-parallel", "2")
	if err != nil {
		t.Fatal(err)
	}
	if rc.seeds != 4 || rc.parallel != 2 {
		t.Fatalf("flags: seeds=%d parallel=%d", rc.seeds, rc.parallel)
	}
}

// TestExecuteSeedsParallelIdentity: the multi-seed replication must render
// byte-identical combined reports sequentially and fanned out, with one
// header per seed in ascending order.
func TestExecuteSeedsParallelIdentity(t *testing.T) {
	run := func(parallel int) string {
		rc, err := parse(t,
			"-app", "kv", "-threads", "4", "-nodes", "2", "-tcm=false",
			"-seeds", "3", "-parallel", fmt.Sprint(parallel))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := rc.execute(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	seq, par := run(1), run(4)
	if seq != par {
		t.Fatalf("parallel seed replication diverged from sequential:\n--- seq\n%s\n--- par\n%s", seq, par)
	}
	for _, want := range []string{"===== seed 42 =====", "===== seed 43 =====", "===== seed 44 ====="} {
		if !strings.Contains(seq, want) {
			t.Errorf("combined report missing %q", want)
		}
	}
}

// TestExecuteBenchJSON: -benchjson writes a machine-readable run report
// with per-seed exec times.
func TestExecuteBenchJSON(t *testing.T) {
	path := t.TempDir() + "/run.json"
	rc, err := parse(t,
		"-app", "kv", "-threads", "4", "-nodes", "2", "-tcm=false",
		"-seeds", "2", "-parallel", "1", "-benchjson", path)
	if err != nil {
		t.Fatal(err)
	}
	if rc.benchjson != path {
		t.Fatalf("benchjson flag not parsed: %+v", rc)
	}
	if err := rc.execute(io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep runReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON report: %v\n%s", err, data)
	}
	if rep.App != "kv" || rep.Seeds != 2 || len(rep.ExecMs) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.ExecMs[0] <= 0 || rep.WallMs <= 0 {
		t.Fatalf("non-positive timings: %+v", rep)
	}
}

func TestExecuteClosedLoopSmoke(t *testing.T) {
	rc, err := parse(t,
		"-app", "kv", "-scenario", "phased", "-policy", "rebalance",
		"-epochs", "4", "-threads", "4", "-nodes", "2", "-tcm=false")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the run so the smoke test stays fast: an explicit epoch skips
	// the pilot.
	rc.spec.Epoch = 20 * jessica2.Millisecond
	var sb strings.Builder
	if err := rc.execute(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"closed-loop policy \"rebalance\"", "execution time:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestExecuteProfileRoundTrip: -profile-out saves a loadable profile whose
// warm reload (-profile-in, warmstart policy) reports the warm-start line
// and spends fewer correlation logs than the capture run; loading it under
// a different seed degrades to a cold start with the mismatch warning and
// no error.
func TestExecuteProfileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/kv.j2pf"
	base := []string{
		"-app", "kv", "-scenario", "phased", "-threads", "4", "-nodes", "2",
		"-epoch", "20ms", "-tcm=false",
	}
	run := func(extra ...string) string {
		rc, err := parse(t, append(append([]string(nil), base...), extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := rc.execute(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	corrLogs := func(out string) int {
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, "correlation logs:"); ok {
				n, err := strconv.Atoi(strings.TrimSpace(rest))
				if err != nil {
					t.Fatalf("bad correlation-logs line %q: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("no correlation-logs line in:\n%s", out)
		return 0
	}

	cold := run("-policy", "rebalance", "-profile-out", path)
	if !strings.Contains(cold, "profile saved to "+path) {
		t.Fatalf("capture run did not report the save:\n%s", cold)
	}
	prof, err := jessica2.LoadProfile(path)
	if err != nil {
		t.Fatalf("saved profile does not load: %v", err)
	}
	if prof.Fingerprint.Workload != "KVMix" || prof.Fingerprint.Seed != 42 {
		t.Fatalf("fingerprint = %+v", prof.Fingerprint)
	}

	warm := run("-policy", "warmstart", "-profile-in", path)
	if !strings.Contains(warm, "warm start from "+path) {
		t.Fatalf("warm run did not report the load:\n%s", warm)
	}
	if strings.Contains(warm, "warning:") {
		t.Fatalf("matching profile produced a warning:\n%s", warm)
	}
	if cl, wl := corrLogs(cold), corrLogs(warm); wl >= cl {
		t.Errorf("warm run logged %d correlations, capture run %d — the floor rate never engaged", wl, cl)
	}

	mismatch := run("-policy", "warmstart", "-profile-in", path, "-seed", "7")
	if !strings.Contains(mismatch, "warning: profile fingerprint mismatch") {
		t.Fatalf("mismatched profile produced no warning:\n%s", mismatch)
	}
}
