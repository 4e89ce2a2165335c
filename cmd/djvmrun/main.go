// Command djvmrun executes one benchmark on the simulated distributed JVM
// with chosen profiling settings and prints the run report, the thread
// correlation map, and (optionally) a balancer plan derived from it.
//
// Usage:
//
//	djvmrun -app sor -threads 8 -rate full
//	djvmrun -app bh -threads 16 -rate 4 -stack -footprint -plan
//	djvmrun -app water -adaptive
//	djvmrun -app kv -adaptive -scenario phased
//	djvmrun -app lu -scenario hetero,noisy,jitter -scenario-seed 7
//	djvmrun -app kv -scenario phased -policy rebalance -epochs 8
//	djvmrun -app kv -scenario crash -recover -policy rebalance
//	djvmrun -app serve -scenario diurnal -policy rebalance -epoch 125ms
//	djvmrun -app serve -scenario crash+burst -recover
//	djvmrun -app serve -scenario flaky,burst -protect shed
//	djvmrun -app kv -scenario phased -policy rebalance -profile-out kv.j2pf
//	djvmrun -app kv -scenario phased -policy warmstart -profile-in kv.j2pf
//	djvmrun -app sor -seeds 8 -workers host1:9377,host2:9377
//
// -workers dispatches the run (all -seeds replicas as one batch) to a
// fleet of djvmworker processes through the fault-tolerant experiment
// dispatcher and renders a compact report from each collected outcome.
// Only spec-expressible runs dispatch: plain profiling runs of the
// closed-loop apps (sor, bh, water, lu, kv) without -policy, -recover or
// profile I/O. Workers that are unreachable or die mid-batch cost wall
// clock, not results — stranded jobs rerun locally and the output is
// byte-identical to a local run.
//
// -profile-out saves the end-of-run profile (TCM, placement, hot-object
// homes, rate trace) to the named file; -profile-in reloads one, applying
// the stored placement before epoch 0 and seeding the TCM accumulator. A
// profile recorded under a different app, cluster shape, seed or scenario
// is rejected with a warning in the report and the run starts cold. The
// warmstart policy drives the sampling rate from the live-vs-stored
// divergence signal (floor rate while the run matches the profile, full
// rate plus rebalancing when it drifts).
//
// -app serve is the open-loop request-serving workload: requests arrive on
// a scenario-generated schedule (the poisson, diurnal and burst presets)
// instead of a closed iteration loop, and the report gains goodput and
// P50/P95/P99 latency on the simulated clock. Without an arrival preset a
// default Poisson stream is installed.
//
// -protect picks the serving-path protection level for open-loop apps:
// "off" is the classic static path, "shed" arms per-request deadlines and
// admission control only, "full" adds bounded retries, quantile-delayed
// hedging and per-node circuit breakers fed by the failure detector. The
// default "auto" resolves to full when -recover is set on an open-loop app
// (serving through failures wants the whole stack) and off otherwise, so
// plain runs stay byte-identical to builds without the robustness layer.
// A protected run's report gains a serving-robustness tail with the
// goodput-within-SLO headline and the shed/retry/hedge/reroute/breaker
// counters.
//
// The -scenario flag injects fault-injection perturbation schedules
// (comma-separated presets: hetero, ramp, jitter, noisy, phased, storm,
// crash, flaky, partition) composed by the scenario engine; runs stay
// deterministic per seed. The failure presets lose things — nodes, profile
// flushes, connectivity — and -recover arms the runtime's failure-tolerance
// layer (heartbeat/lease node-death detection with thread evacuation,
// reliable profile flushes, TCM decay) to survive them; the run report then
// includes the failure counters and final cluster health.
//
// The -policy flag turns the run into a closed-loop session: a pilot run
// measures the baseline execution time, the run is split into -epochs
// epochs (or stepped every -epoch if given), and the policy observes and
// acts at every epoch boundary. Both execution times are reported.
//
// -seeds N replicates the run over N consecutive seeds (seed, seed+1, ...)
// for quick variance checks; -parallel fans the replicas out over the
// experiment runner's worker pool (default GOMAXPROCS). Reports are
// buffered per seed and printed in seed order, so the output is
// byte-identical at any parallelism.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"jessica2"
	"jessica2/internal/dispatch"
	"jessica2/internal/experiments"
	"jessica2/internal/runner"
)

// runConfig is one fully parsed and validated invocation.
type runConfig struct {
	app       string
	nodes     int
	threads   int
	seed      uint64
	rate      jessica2.Rate
	adaptive  bool
	stackProf bool
	footprint bool
	showTCM   bool
	plan      bool
	scenSpec  string
	recover   bool
	protect   string // serving protection level: off | shed | full | auto
	policyTag string
	epochs    int
	epoch     jessica2.Time
	seeds     int
	parallel  int
	workers   string // comma-separated djvmworker fleet (dispatched mode)
	scenSeed  uint64 // 0 = follow the workload seed
	benchjson string // write a machine-readable run report to this file

	profileIn  string // load a stored profile (warm start)
	profileOut string // save the end-of-run profile
	// loaded is the decoded -profile-in artifact, read once in execute so
	// replicas share the immutable profile instead of re-reading the file.
	loaded *jessica2.StoredProfile
}

// specApps maps every -app alias of an app an experiments.Spec can carry
// (the subset the dispatcher can ship) onto its identity.
var specApps = map[string]experiments.App{
	"sor":           experiments.AppSOR,
	"bh":            experiments.AppBarnesHut,
	"barnes-hut":    experiments.AppBarnesHut,
	"barneshut":     experiments.AppBarnesHut,
	"water":         experiments.AppWaterSpatial,
	"ws":            experiments.AppWaterSpatial,
	"water-spatial": experiments.AppWaterSpatial,
	"lu":            experiments.AppLU,
	"kv":            experiments.AppKVMix,
	"kvmix":         experiments.AppKVMix,
}

// newWorkload instantiates the named benchmark (fresh instance per call so
// pilot and policy runs never share workload state). Spec apps build at
// paper scale.
func newWorkload(app string) (jessica2.Workload, error) {
	name := strings.ToLower(app)
	if a, ok := specApps[name]; ok {
		return experiments.NewWorkload(a, false, 1), nil
	}
	switch name {
	case "synth", "synthetic":
		return jessica2.NewSynthetic(), nil
	case "serve", "servemix":
		// Open-loop: the arrival schedule is installed at session launch
		// from the scenario's Arrivals spec (see ensureArrivals).
		return jessica2.NewServeMix(), nil
	}
	return nil, fmt.Errorf("unknown app %q", app)
}

// newPolicy resolves a -policy name; prof is the -profile-in artifact the
// warmstart policy replays (nil degrades it to a rebalance proxy).
func newPolicy(name string, prof *jessica2.StoredProfile) (jessica2.Policy, error) {
	switch strings.ToLower(name) {
	case "", "none", "off":
		return nil, nil
	case "nop":
		return jessica2.NopPolicy{}, nil
	case "rebalance":
		return jessica2.NewRebalancePolicy(), nil
	case "warmstart":
		return jessica2.NewWarmStartPolicy(prof), nil
	}
	return nil, fmt.Errorf("unknown policy %q (have none, nop, rebalance, warmstart)", name)
}

// parseArgs parses and validates a full command line (excluding argv[0]).
func parseArgs(args []string, errOut io.Writer) (*runConfig, error) {
	fs := flag.NewFlagSet("djvmrun", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		app       = fs.String("app", "sor", "benchmark: sor | bh | water | synth | lu | kv | serve")
		nodes     = fs.Int("nodes", 8, "cluster nodes")
		threads   = fs.Int("threads", 8, "worker threads")
		seed      = fs.Uint64("seed", 42, "workload seed")
		rateStr   = fs.String("rate", "full", "sampling rate: off | full | <n> (nX)")
		adaptive  = fs.Bool("adaptive", false, "enable the adaptive rate controller")
		stackProf = fs.Bool("stack", false, "enable stack sampling (16ms, lazy)")
		footprint = fs.Bool("footprint", false, "enable sticky-set footprinting")
		showTCM   = fs.Bool("tcm", true, "print the thread correlation map")
		plan      = fs.Bool("plan", false, "print a correlation-driven placement plan")
		scenSpec  = fs.String("scenario", "none", "fault-injection scenario presets, '+' or comma-separated (crash+burst composes a failure schedule with burst arrivals): hetero | ramp | jitter | noisy | phased | storm | crash | flaky | partition | poisson | diurnal | burst")
		recov     = fs.Bool("recover", false, "arm the failure-tolerance layer (heartbeat/lease detection, thread evacuation, reliable profile flushes)")
		protect   = fs.String("protect", "auto", "serving protection level for open-loop apps: off | shed | full | auto (auto = full when -recover is set, off otherwise)")
		scenSeed  = fs.Uint64("scenario-seed", 0, "scenario seed (0 = workload seed)")
		policy    = fs.String("policy", "none", "closed-loop policy: none | nop | rebalance | warmstart")
		epochs    = fs.Int("epochs", 8, "closed-loop epoch count (epoch length = baseline exec / epochs)")
		epoch     = fs.Duration("epoch", 0, "explicit closed-loop epoch length (overrides -epochs; skips the pilot run)")
		seeds     = fs.Int("seeds", 1, "replicate the run over N consecutive seeds")
		parallel  = fs.Int("parallel", 0, "worker pool for -seeds replicas (0 = GOMAXPROCS, 1 = sequential)")
		workers   = fs.String("workers", "", "comma-separated djvmworker addresses; runs are dispatched to the fleet and rendered from the collected outcomes (plain profiling runs only)")
		benchjson = fs.String("benchjson", "", "write a machine-readable run report (exec times, wall clock) to this file")
		profIn    = fs.String("profile-in", "", "load a stored profile for a warm start (placement applied before epoch 0, TCM seeded; mismatched fingerprints fall back to cold with a warning)")
		profOut   = fs.String("profile-out", "", "save the end-of-run profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	rc := &runConfig{
		app: *app, nodes: *nodes, threads: *threads, seed: *seed,
		adaptive: *adaptive, stackProf: *stackProf, footprint: *footprint,
		showTCM: *showTCM, plan: *plan, scenSpec: *scenSpec, recover: *recov,
		protect:   strings.ToLower(*protect),
		policyTag: strings.ToLower(*policy),
		epochs:    *epochs, epoch: jessica2.Time(epoch.Nanoseconds()),
		seeds: *seeds, parallel: *parallel, workers: *workers, benchjson: *benchjson,
		profileIn: *profIn, profileOut: *profOut,
	}
	if _, err := newWorkload(rc.app); err != nil {
		return nil, err
	}
	if rc.nodes < 1 {
		return nil, fmt.Errorf("need at least one node, got %d", rc.nodes)
	}
	if rc.threads < 1 {
		return nil, fmt.Errorf("need at least one thread, got %d", rc.threads)
	}
	switch strings.ToLower(*rateStr) {
	case "off", "0":
		rc.rate = 0
	case "full":
		rc.rate = jessica2.FullRate
	default:
		n, err := strconv.Atoi(*rateStr)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad rate %q", *rateStr)
		}
		rc.rate = jessica2.Rate(n)
	}
	// Validate-only construction: runSeed rebuilds a fresh scenario and
	// policy per replica (seeded state must not be shared across concurrent
	// seed jobs), so the parsed instances are discarded here on purpose.
	rc.scenSeed = *scenSeed
	ss := rc.scenSeed
	if ss == 0 {
		ss = rc.seed
	}
	if _, err := jessica2.ParseScenario(rc.scenSpec, rc.nodes, ss); err != nil {
		return nil, err
	}
	switch rc.protect {
	case "off", "none", "shed", "full", "auto":
	default:
		return nil, fmt.Errorf("unknown -protect %q (have off, shed, full, auto)", *protect)
	}
	if (rc.protect == "shed" || rc.protect == "full") && !rc.openLoop() {
		return nil, fmt.Errorf("-protect %s needs an open-loop app (serve), got -app %s", rc.protect, rc.app)
	}
	pol, err := newPolicy(rc.policyTag, nil)
	if err != nil {
		return nil, err
	}
	if pol != nil && rc.epoch <= 0 && rc.epochs < 1 {
		return nil, fmt.Errorf("-policy %s needs -epochs >= 1 or an explicit -epoch", rc.policyTag)
	}
	if rc.epoch < 0 {
		return nil, fmt.Errorf("negative -epoch")
	}
	if rc.seeds < 1 {
		return nil, fmt.Errorf("-seeds must be at least 1, got %d", rc.seeds)
	}
	if rc.profileOut != "" && rc.seeds > 1 {
		return nil, fmt.Errorf("-profile-out captures one run's profile; incompatible with -seeds %d", rc.seeds)
	}
	if rc.parallel < 0 {
		return nil, fmt.Errorf("negative -parallel")
	}
	if rc.workers != "" {
		// Dispatched runs travel as experiments.Spec: only what the spec can
		// express is eligible. Closed-loop policies, the failure-tolerance
		// layer and profile I/O are session-side machinery that does not
		// serialize; the open-loop and synthetic apps have no spec mapping.
		if _, ok := specApp(rc.app); !ok {
			return nil, fmt.Errorf("-workers cannot dispatch -app %s (specs cover sor, bh, water, lu, kv)", rc.app)
		}
		if pol != nil {
			return nil, fmt.Errorf("-workers cannot dispatch a -policy run")
		}
		if rc.recover {
			return nil, fmt.Errorf("-workers cannot dispatch a -recover run")
		}
		if rc.profileIn != "" || rc.profileOut != "" {
			return nil, fmt.Errorf("-workers cannot dispatch profile I/O runs")
		}
	}
	return rc, nil
}

// specApp maps a -app name onto its experiments.Spec identity.
func specApp(app string) (experiments.App, bool) {
	a, ok := specApps[strings.ToLower(app)]
	return a, ok
}

// openLoop reports whether the configured app is schedule-driven.
func (rc *runConfig) openLoop() bool {
	w, err := newWorkload(rc.app)
	if err != nil {
		return false
	}
	_, ok := w.(jessica2.OpenLoop)
	return ok
}

// protection resolves the -protect level: auto becomes full when the
// failure-tolerance layer is armed on an open-loop app (serving through
// failures wants the whole stack) and off otherwise, so plain serve runs
// keep their classic byte-identical output.
func (rc *runConfig) protection() string {
	switch rc.protect {
	case "auto":
		if rc.recover && rc.openLoop() {
			return "full"
		}
		return "off"
	case "none":
		return "off"
	}
	return rc.protect
}

// robustFor maps a resolved protection level onto a ServeMix robustness
// config (nil = classic static path).
func robustFor(level string) *jessica2.RobustConfig {
	switch level {
	case "shed":
		// Deadline + admission control only: the tail is capped at the SLO
		// but nothing stranded on a dead node is rescued.
		full := jessica2.DefaultRobustConfig()
		return &jessica2.RobustConfig{Deadline: full.Deadline, Capacity: full.Capacity}
	case "full":
		return jessica2.DefaultRobustConfig()
	}
	return nil
}

// ensureArrivals gives an open-loop app a default arrival schedule when the
// chosen scenario does not carry one: a modest Poisson stream seeded like
// the scenario, so `-app serve` works without an explicit arrival preset.
// Closed-loop apps pass through untouched.
func (rc *runConfig) ensureArrivals(scen *jessica2.Scenario, seed uint64) *jessica2.Scenario {
	w, err := newWorkload(rc.app)
	if err != nil {
		return scen
	}
	if _, ok := w.(jessica2.OpenLoop); !ok {
		return scen
	}
	if scen != nil && scen.Arrivals != nil {
		return scen
	}
	if scen == nil {
		scen = &jessica2.Scenario{Name: "poisson-default", Seed: seed}
	}
	scen.Arrivals = &jessica2.Arrivals{
		Kind:    jessica2.ArrivePoisson,
		Rate:    1000,
		Horizon: jessica2.Second,
	}
	return scen
}

// buildSession assembles one session for the config; policy installs the
// closed-loop controller (nil = plain run) with the given epoch length.
// Scenario, policy and seed are per-run arguments because -seeds replicas
// run concurrently and must not share stateful instances.
func (rc *runConfig) buildSession(scen *jessica2.Scenario, policy jessica2.Policy, seed uint64, epoch jessica2.Time, pio jessica2.ProfileIO) (*jessica2.Session, *jessica2.Profiler, error) {
	cfg := jessica2.DefaultConfig()
	cfg.Nodes = rc.nodes
	cfg.Epoch = epoch
	if rc.rate == 0 {
		cfg.Tracking = jessica2.TrackingOff
	}
	cfg.Scenario = scen
	cfg.Profile = pio
	if rc.recover {
		cfg.Failure = jessica2.DefaultFailureConfig()
	}
	sess := jessica2.NewSession(cfg)
	w, err := newWorkload(rc.app)
	if err != nil {
		return nil, nil, err
	}
	if sm, ok := w.(*jessica2.ServeMix); ok {
		sm.Robust = robustFor(rc.protection())
	}
	if err := sess.Launch(w, jessica2.Params{Threads: rc.threads, Seed: seed}); err != nil {
		return nil, nil, err
	}
	pc := jessica2.ProfileConfig{Rate: rc.rate}
	if rc.adaptive {
		ac := jessica2.DefaultAdaptiveConfig()
		pc.Adaptive = &ac
		pc.Rate = 0
	}
	if rc.stackProf {
		sc := jessica2.DefaultStackConfig()
		pc.Stack = &sc
	}
	if rc.footprint {
		pc.Footprint = &jessica2.FootprintConfig{FootprinterConfig: jessica2.DefaultFootprinter()}
	}
	prof, err := sess.AttachProfiling(pc)
	if err != nil {
		return nil, nil, err
	}
	if policy != nil {
		if err := sess.SetPolicy(policy); err != nil {
			return nil, nil, err
		}
	}
	return sess, prof, nil
}

// runReport is the -benchjson document: one machine-readable record of the
// invocation, its per-seed simulated execution times and the host-side
// wall clock.
type runReport struct {
	App       string    `json:"app"`
	Scenario  string    `json:"scenario"`
	Policy    string    `json:"policy"`
	Seeds     int       `json:"seeds"`
	Parallel  int       `json:"parallel"`
	GoVersion string    `json:"go_version"`
	ExecMs    []float64 `json:"exec_ms"`
	WallMs    float64   `json:"wall_clock_ms"`
}

// execute runs the parsed invocation, writing the report to out. With
// -seeds N > 1 the replicas fan out over the runner pool, each rendering
// into its own buffer; buffers are printed in seed order so the combined
// report is byte-identical at any parallelism. With -benchjson the
// per-seed execution times and wall clock are additionally written as a
// JSON report.
func (rc *runConfig) execute(out io.Writer) error {
	start := time.Now()
	if rc.workers != "" {
		return rc.executeDispatched(out, start)
	}
	if rc.profileIn != "" {
		prof, err := jessica2.LoadProfile(rc.profileIn)
		if err != nil {
			return fmt.Errorf("-profile-in %s: %w", rc.profileIn, err)
		}
		rc.loaded = prof
	}
	execs := make([]jessica2.Time, rc.seeds)
	if rc.seeds == 1 {
		var err error
		execs[0], err = rc.runSeed(rc.seed, out)
		if err != nil {
			return err
		}
		return rc.writeBenchJSON(execs, time.Since(start))
	}
	pool := runner.New(rc.parallel)
	type result struct {
		buf bytes.Buffer
		err error
	}
	results := make([]result, rc.seeds)
	runner.Go(pool, rc.seeds, func(i int) {
		execs[i], results[i].err = rc.runSeed(rc.seed+uint64(i), &results[i].buf)
	})
	for i := range results {
		fmt.Fprintf(out, "===== seed %d =====\n", rc.seed+uint64(i))
		if results[i].err != nil {
			return results[i].err
		}
		if _, err := io.Copy(out, &results[i].buf); err != nil {
			return err
		}
	}
	return rc.writeBenchJSON(execs, time.Since(start))
}

// buildSpec maps one replica of the invocation onto the wire-portable
// experiment spec the dispatcher ships.
func (rc *runConfig) buildSpec(seed uint64) (experiments.Spec, error) {
	app, ok := specApp(rc.app)
	if !ok {
		return experiments.Spec{}, fmt.Errorf("-app %s has no spec mapping", rc.app)
	}
	ss := rc.scenSeed
	if ss == 0 {
		ss = seed
	}
	scen, err := jessica2.ParseScenario(rc.scenSpec, rc.nodes, ss)
	if err != nil {
		return experiments.Spec{}, err
	}
	spec := experiments.Spec{
		App: app, Nodes: rc.nodes, Threads: rc.threads, Seed: seed,
		Rate: rc.rate, Tracking: jessica2.TrackingSampled, TransferOALs: true,
		Scenario: scen,
	}
	if rc.rate == 0 {
		spec.Tracking = jessica2.TrackingOff
	}
	if rc.adaptive {
		ac := jessica2.DefaultAdaptiveConfig()
		spec.Adaptive = &ac
		spec.Rate = 0
	}
	if rc.stackProf {
		sc := jessica2.DefaultStackConfig()
		spec.Stack = &sc
	}
	if rc.footprint {
		spec.Footprint = &jessica2.FootprintConfig{FootprinterConfig: jessica2.DefaultFootprinter()}
	}
	return spec, nil
}

// executeDispatched ships the invocation — all -seeds replicas as one
// batch — to the djvmworker fleet and renders each collected outcome in
// seed order. Unreachable or dying workers degrade to local execution
// inside the dispatcher, so the command succeeds (more slowly) even with
// the whole fleet down.
func (rc *runConfig) executeDispatched(out io.Writer, start time.Time) error {
	specs := make([]experiments.Spec, rc.seeds)
	for i := range specs {
		var err error
		if specs[i], err = rc.buildSpec(rc.seed + uint64(i)); err != nil {
			return err
		}
	}
	d := dispatch.New(dispatch.Config{
		Workers:  strings.Split(rc.workers, ","),
		Fallback: runner.New(rc.parallel),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	outs, err := d.RunSpecs(specs)
	if err != nil {
		return err
	}
	execs := make([]jessica2.Time, len(outs))
	for i, o := range outs {
		if rc.seeds > 1 {
			fmt.Fprintf(out, "===== seed %d =====\n", rc.seed+uint64(i))
		}
		rc.renderOut(o, out)
		execs[i] = o.Exec
	}
	s := d.Stats()
	fmt.Fprintf(out, "dispatch: %d jobs (%d remote, %d local), %d leases granted, %d expired, %d reassigned, %d stale rejected, %d workers lost\n",
		s.Jobs, s.Remote, s.Local, s.LeasesGranted, s.LeasesExpired, s.Reassignments, s.StaleRejected, s.WorkersLost)
	return rc.writeBenchJSON(execs, time.Since(start))
}

// renderOut prints the dispatched-run report for one collected outcome: a
// compact version of runSeed's report covering everything a Spec-shaped
// run produces.
func (rc *runConfig) renderOut(o *experiments.Out, out io.Writer) {
	w, _ := newWorkload(rc.app)
	scenName := "none"
	if o.Spec.Scenario != nil {
		scenName = o.Spec.Scenario.String()
	}
	fmt.Fprintf(out, "%s on %d nodes, %d threads (scenario: %s, dispatched)\n\n",
		w.Name(), rc.nodes, rc.threads, scenName)
	fmt.Fprintf(out, "execution time:    %v\n", o.Exec)
	fmt.Fprintf(out, "profiling traffic: %.1f KB OAL, %.1f KB GOS\n", o.OALKB(), o.GOSKB())
	if o.TCMTime > 0 {
		fmt.Fprintf(out, "TCM analyzer CPU:  %v\n", o.TCMTime)
	}
	fmt.Fprintln(out)
	if rc.adaptive && o.Profiler != nil {
		fmt.Fprintln(out, "adaptive controller trace:")
		for _, rcg := range o.Profiler.RateTrace {
			fmt.Fprintf(out, "  t=%v  %v -> %v  distance=%.4f converged=%v (resampled %d)\n",
				rcg.At, rcg.From, rcg.To, rcg.Distance, rcg.Converged, rcg.Resampled)
		}
		fmt.Fprintln(out)
	}
	if rc.footprint && o.Footprints != nil {
		fmt.Fprintln(out, "sticky-set footprints (thread 0):")
		fp := o.Footprints[0]
		for _, c := range fp.Classes() {
			fmt.Fprintf(out, "  %-10s %8d bytes\n", c, fp[c])
		}
		fmt.Fprintln(out)
	}
	if rc.showTCM && o.TCM != nil {
		fmt.Fprintln(out, "thread correlation map:")
		fmt.Fprintln(out, o.TCM)
	}
	if rc.plan && o.TCM != nil {
		cur := jessica2.BlockedPlacement(rc.threads, rc.nodes)
		next, moves := jessica2.PlanPlacement(o.TCM, cur, rc.nodes)
		fmt.Fprintf(out, "placement plan: cross-volume %.0f -> %.0f bytes\n",
			jessica2.CrossVolume(o.TCM, cur), jessica2.CrossVolume(o.TCM, next))
		for _, mv := range moves {
			fmt.Fprintf(out, "  %s\n", mv)
		}
	}
}

// writeBenchJSON emits the -benchjson report (no-op when the flag is
// unset).
func (rc *runConfig) writeBenchJSON(execs []jessica2.Time, wall time.Duration) error {
	if rc.benchjson == "" {
		return nil
	}
	rep := runReport{
		App:       rc.app,
		Scenario:  rc.scenSpec,
		Policy:    rc.policyTag,
		Seeds:     rc.seeds,
		Parallel:  rc.parallel,
		GoVersion: runtime.Version(),
		WallMs:    float64(wall.Nanoseconds()) / 1e6,
	}
	for _, e := range execs {
		rep.ExecMs = append(rep.ExecMs, e.Milliseconds())
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(rc.benchjson, append(data, '\n'), 0o644)
}

// runSeed executes one replica of the invocation at the given seed,
// returning the workload execution time.
func (rc *runConfig) runSeed(seed uint64, out io.Writer) (jessica2.Time, error) {
	// Fresh per-replica instances: the scenario's jitter stream follows the
	// replica's seed (unless pinned by -scenario-seed), and policies may
	// carry state across epochs.
	ss := rc.scenSeed
	if ss == 0 {
		ss = seed
	}
	scen, err := jessica2.ParseScenario(rc.scenSpec, rc.nodes, ss)
	if err != nil {
		return 0, err
	}
	scen = rc.ensureArrivals(scen, ss)
	policy, err := newPolicy(rc.policyTag, rc.loaded)
	if err != nil {
		return 0, err
	}
	scenName := "none"
	if scen != nil {
		scenName = scen.String()
	}

	epoch := rc.epoch
	if policy != nil && epoch <= 0 {
		// Pilot run: measure the baseline to calibrate the epoch length.
		// The pilot never loads or saves a profile — the calibration must
		// reflect the plain cold baseline.
		pilot, _, err := rc.buildSession(scen, nil, seed, 0, jessica2.ProfileIO{})
		if err != nil {
			return 0, err
		}
		rep, err := pilot.Run()
		if err != nil {
			return 0, err
		}
		epoch = rep.ExecTime() / jessica2.Time(rc.epochs)
		if epoch <= 0 {
			epoch = jessica2.Millisecond
		}
		fmt.Fprintf(out, "pilot (no policy): exec %v -> epoch %v over %d epochs\n\n",
			rep.ExecTime(), epoch, rc.epochs)
	}

	sess, prof, err := rc.buildSession(scen, policy, seed, epoch,
		jessica2.ProfileIO{Load: rc.loaded, Save: rc.profileOut != ""})
	if err != nil {
		return 0, err
	}
	rep, err := sess.Run()
	if err != nil {
		return 0, err
	}
	w, err := newWorkload(rc.app)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "%s on %d nodes, %d threads (scenario: %s)\n\n%s\n",
		w.Name(), rc.nodes, rc.threads, scenName, rep)

	if warn := sess.ProfileWarning(); warn != "" {
		fmt.Fprintf(out, "warning: %s\n\n", warn)
	} else if rc.loaded != nil {
		fmt.Fprintf(out, "warm start from %s: %d hot-object homes, %d stored decisions replayable (fingerprint %s)\n\n",
			rc.profileIn, len(rc.loaded.HotHomes), len(rc.loaded.Decisions), rc.loaded.Fingerprint)
	}
	if rc.profileOut != "" {
		stored, err := sess.CapturedProfile()
		if err != nil {
			return 0, fmt.Errorf("capturing profile: %w", err)
		}
		if err := jessica2.SaveProfile(rc.profileOut, stored); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "profile saved to %s: %d TCM threads, %d hot-object homes, %d decisions (fingerprint %s)\n\n",
			rc.profileOut, stored.TCMThreads, len(stored.HotHomes), len(stored.Decisions), stored.Fingerprint)
	}

	if snap := sess.Snapshot(); snap.Serve != nil {
		fmt.Fprintf(out, "open-loop serving: %s\n\n", snap.Serve)
		if sv := snap.Serve; sv.Robust {
			fmt.Fprintf(out, "serving robustness (%s): slo-goodput %.0f/s (%d in SLO), shed %d, expired %d, failed fast %d\n",
				rc.protection(), sv.SLOGoodputPerSec, sv.CompletedInSLO,
				sv.Shed, sv.DeadlineExceeded, sv.FailedFast)
			fmt.Fprintf(out, "  recovery work: %d retried, %d hedged (%d wins), %d rerouted, %d breaker opens, %d wasted attempts\n\n",
				sv.Retried, sv.Hedged, sv.HedgeWins, sv.Rerouted, sv.BreakerOpens, sv.Wasted)
		}
	}

	if rc.recover {
		fs := sess.Kernel().FailureStats()
		fmt.Fprintf(out, "failure layer: %d lease expiries, %d recoveries, %d evacuations\n",
			fs.LeaseExpiries, fs.NodeRecoveries, fs.Evacuations)
		fmt.Fprintf(out, "  flushes: %d sent, %d retried, %d acked, %d abandoned, %d duplicates dropped\n",
			fs.FlushesSent, fs.FlushRetries, fs.FlushesAcked, fs.FlushesAbandoned, fs.DuplicateFlushes)
		if h := sess.Kernel().HealthInto(nil); h != nil {
			fmt.Fprintf(out, "  final health: %d/%d nodes alive\n", h.LiveNodes, rc.nodes)
		}
		fmt.Fprintln(out)
	}
	if policy != nil {
		var applied []jessica2.AppliedAction
		for _, a := range sess.Actions() {
			if a.Note == "" {
				applied = append(applied, a)
			}
		}
		fmt.Fprintf(out, "closed-loop policy %q: %d epochs, %d actions applied\n",
			policy.Name(), sess.Epochs(), len(applied))
		const maxShown = 12
		for i, a := range applied {
			if i == maxShown {
				fmt.Fprintf(out, "  ... (%d more)\n", len(applied)-maxShown)
				break
			}
			fmt.Fprintf(out, "  epoch %2d t=%v  %v\n", a.Epoch, a.At, a.Action)
		}
		fmt.Fprintln(out)
	}
	if rc.adaptive {
		fmt.Fprintln(out, "adaptive controller trace:")
		for _, rcg := range prof.RateTrace() {
			fmt.Fprintf(out, "  t=%v  %v -> %v  distance=%.4f converged=%v (resampled %d)\n",
				rcg.At, rcg.From, rcg.To, rcg.Distance, rcg.Converged, rcg.Resampled)
		}
		fmt.Fprintln(out)
	}
	if rc.footprint {
		fmt.Fprintln(out, "sticky-set footprints (thread 0):")
		fp := prof.Footprint(0)
		for _, c := range fp.Classes() {
			fmt.Fprintf(out, "  %-10s %8d bytes\n", c, fp[c])
		}
		fmt.Fprintln(out)
	}
	if rc.showTCM && rc.rate != 0 {
		fmt.Fprintln(out, "thread correlation map:")
		fmt.Fprintln(out, rep.TCM())
	}
	if rc.plan && rc.rate != 0 {
		m := rep.TCM()
		cur := jessica2.BlockedPlacement(rc.threads, rc.nodes)
		next, moves := jessica2.PlanPlacement(m, cur, rc.nodes)
		fmt.Fprintf(out, "placement plan: cross-volume %.0f -> %.0f bytes\n",
			jessica2.CrossVolume(m, cur), jessica2.CrossVolume(m, next))
		for _, mv := range moves {
			fmt.Fprintf(out, "  %s\n", mv)
		}
	}
	return rep.ExecTime(), nil
}

func main() {
	rc, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := rc.execute(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
