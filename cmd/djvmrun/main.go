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
//	djvmrun -app sor -seeds 8 -parallel 2
//
// Every invocation becomes one experiments.Spec per seed, run through
// experiments.RunAll and rendered from its experiments.Out by one report.
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
// experiment runner's worker pool (default GOMAXPROCS). The outcomes are
// reported in seed order, so the output is byte-identical at any
// parallelism.
package main

import (
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
	"jessica2/internal/experiments"
	"jessica2/internal/runner"
	"jessica2/internal/session"
)

// runConfig is one fully parsed and validated invocation.
type runConfig struct {
	// spec is the run every -seeds replica repeats; specFor gives each
	// replica its seed and scenario.
	spec      experiments.Spec
	app       string // -app as given
	policyTag string // -policy as given, lowercased
	scenSpec  string
	scenSeed  uint64 // 0 = follow the workload seed
	showTCM   bool
	plan      bool
	seeds     int
	parallel  int
	benchjson string // write a machine-readable run report to this file

	profileIn  string // load a stored profile (warm start)
	profileOut string // save the end-of-run profile
}

// apps maps every -app alias onto its experiments.App.
var apps = map[string]experiments.App{
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
	"synth":         experiments.AppSynthetic,
	"synthetic":     experiments.AppSynthetic,
	"serve":         experiments.AppServe,
	"servemix":      experiments.AppServe,
}

// parseApp resolves a -app name, case-insensitively.
func parseApp(name string) (experiments.App, error) {
	if a, ok := apps[strings.ToLower(name)]; ok {
		return a, nil
	}
	return 0, fmt.Errorf("unknown app %q", name)
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
		benchjson = fs.String("benchjson", "", "write a machine-readable run report (exec times, wall clock) to this file")
		profIn    = fs.String("profile-in", "", "load a stored profile for a warm start (placement applied before epoch 0, TCM seeded; mismatched fingerprints fall back to cold with a warning)")
		profOut   = fs.String("profile-out", "", "save the end-of-run profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	a, err := parseApp(*app)
	if err != nil {
		return nil, err
	}
	rc := &runConfig{
		spec: experiments.Spec{
			App: a, Nodes: *nodes, Threads: *threads, Seed: *seed,
			Tracking: jessica2.TrackingSampled, TransferOALs: true,
			Epoch: jessica2.Time(epoch.Nanoseconds()), Epochs: *epochs,
			SaveProfile: *profOut != "",
		},
		app: *app, policyTag: strings.ToLower(*policy),
		scenSpec: *scenSpec, scenSeed: *scenSeed,
		showTCM: *showTCM, plan: *plan,
		seeds: *seeds, parallel: *parallel, benchjson: *benchjson,
		profileIn: *profIn, profileOut: *profOut,
	}
	switch strings.ToLower(*rateStr) {
	case "off", "0":
		rc.spec.Tracking = jessica2.TrackingOff
	case "full":
		rc.spec.Rate = jessica2.FullRate
	default:
		n, err := strconv.Atoi(*rateStr)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad rate %q", *rateStr)
		}
		rc.spec.Rate = jessica2.Rate(n)
	}
	if *adaptive {
		ac := jessica2.DefaultAdaptiveConfig()
		rc.spec.Adaptive = &ac
		rc.spec.Rate = 0
	}
	if *stackProf {
		sc := jessica2.DefaultStackConfig()
		rc.spec.Stack = &sc
	}
	if *footprint {
		rc.spec.Footprint = &jessica2.FootprintConfig{FootprinterConfig: jessica2.DefaultFootprinter()}
	}
	if *recov {
		rc.spec.Failure = jessica2.DefaultFailureConfig()
	}
	switch rc.policyTag {
	case "none", "off":
	default:
		rc.spec.Policy = rc.policyTag
	}
	// auto arms the whole protection stack when the failure-tolerance layer
	// serves an open-loop app through failures, and nothing otherwise, so
	// plain serve runs keep their classic output.
	switch level := strings.ToLower(*protect); level {
	case "auto":
		if *recov && a == experiments.AppServe {
			rc.spec.Protect = "full"
		}
	case "off", "none":
	case "shed", "full":
		rc.spec.Protect = level
	default:
		return nil, fmt.Errorf("unknown -protect %q (have off, shed, full, auto)", *protect)
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
	if _, err := rc.specFor(rc.spec.Seed); err != nil {
		return nil, err
	}
	return rc, nil
}

// specFor returns the replica of the run at seed, validated. Each replica
// parses its own scenario, seeded like the replica unless -scenario-seed
// pins it, and an open-loop app without an arrival preset gets a modest
// default Poisson stream.
func (rc *runConfig) specFor(seed uint64) (experiments.Spec, error) {
	spec := rc.spec
	spec.Seed = seed
	ss := rc.scenSeed
	if ss == 0 {
		ss = seed
	}
	scen, err := jessica2.ParseScenario(rc.scenSpec, spec.Nodes, ss)
	if err != nil {
		return spec, err
	}
	if spec.App == experiments.AppServe && (scen == nil || scen.Arrivals == nil) {
		if scen == nil {
			scen = &jessica2.Scenario{Name: "poisson-default", Seed: ss}
		}
		scen.Arrivals = &jessica2.Arrivals{
			Kind:    jessica2.ArrivePoisson,
			Rate:    1000,
			Horizon: jessica2.Second,
		}
	}
	spec.Scenario = scen
	return spec, spec.Validate()
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

// execute runs the parsed invocation, writing the report to out. The
// -seeds replicas run as one batch, fanned out over the runner pool;
// reports print in seed order, so the output is byte-identical at any
// parallelism.
// With -benchjson the per-seed execution times and wall clock are
// additionally written as a JSON report.
func (rc *runConfig) execute(out io.Writer) error {
	start := time.Now()
	if rc.profileIn != "" {
		prof, err := jessica2.LoadProfile(rc.profileIn)
		if err != nil {
			return fmt.Errorf("-profile-in %s: %w", rc.profileIn, err)
		}
		rc.spec.LoadProfile = prof
	}
	specs := make([]experiments.Spec, rc.seeds)
	for i := range specs {
		var err error
		if specs[i], err = rc.specFor(rc.spec.Seed + uint64(i)); err != nil {
			return err
		}
	}
	outs := experiments.RunAll(runner.New(rc.parallel), specs)
	execs := make([]jessica2.Time, len(outs))
	for i, o := range outs {
		if rc.seeds > 1 {
			fmt.Fprintf(out, "===== seed %d =====\n", o.Spec.Seed)
		}
		if err := rc.report(o, out); err != nil {
			return err
		}
		execs[i] = o.Exec
	}
	return rc.writeBenchJSON(execs, time.Since(start))
}

// report renders one run's outcome and, with -profile-out, saves its
// captured profile.
func (rc *runConfig) report(o *experiments.Out, out io.Writer) error {
	spec := o.Spec
	if o.Epoch > 0 {
		fmt.Fprintf(out, "pilot (no policy): exec %v -> epoch %v over %d epochs\n\n",
			o.PilotExec, o.Epoch, spec.Epochs)
	}
	name := experiments.NewWorkload(spec.App, spec.Small, spec.Scale).Name()
	scenName := "none"
	if spec.Scenario != nil {
		scenName = spec.Scenario.String()
	}
	fmt.Fprintf(out, "%s on %d nodes, %d threads (scenario: %s)\n\n", name, spec.Nodes, spec.Threads, scenName)
	fmt.Fprintln(out, session.Summary(name, o.Exec, o.Stats, o.Net, o.AnalyzerTime))

	if o.ProfileWarning != "" {
		fmt.Fprintf(out, "warning: %s\n\n", o.ProfileWarning)
	} else if p := spec.LoadProfile; p != nil {
		fmt.Fprintf(out, "warm start from %s: %d hot-object homes, %d stored decisions replayable (fingerprint %s)\n\n",
			rc.profileIn, len(p.HotHomes), len(p.Decisions), p.Fingerprint)
	}
	if p := o.Captured; p != nil {
		if err := jessica2.SaveProfile(rc.profileOut, p); err != nil {
			return err
		}
		fmt.Fprintf(out, "profile saved to %s: %d TCM threads, %d hot-object homes, %d decisions (fingerprint %s)\n\n",
			rc.profileOut, p.TCMThreads, len(p.HotHomes), len(p.Decisions), p.Fingerprint)
	}

	if sv := o.Serve; sv != nil {
		fmt.Fprintf(out, "open-loop serving: %s\n\n", sv)
		if sv.Robust {
			fmt.Fprintf(out, "serving robustness (%s): slo-goodput %.0f/s (%d in SLO), shed %d, expired %d, failed fast %d\n",
				spec.Protect, sv.SLOGoodputPerSec, sv.CompletedInSLO,
				sv.Shed, sv.DeadlineExceeded, sv.FailedFast)
			fmt.Fprintf(out, "  recovery work: %d retried, %d hedged (%d wins), %d rerouted, %d breaker opens, %d wasted attempts\n\n",
				sv.Retried, sv.Hedged, sv.HedgeWins, sv.Rerouted, sv.BreakerOpens, sv.Wasted)
		}
	}
	if fs := o.Failure; fs != nil {
		fmt.Fprintf(out, "failure layer: %d lease expiries, %d recoveries, %d evacuations\n",
			fs.LeaseExpiries, fs.NodeRecoveries, fs.Evacuations)
		fmt.Fprintf(out, "  flushes: %d sent, %d retried, %d acked, %d abandoned, %d duplicates dropped\n",
			fs.FlushesSent, fs.FlushRetries, fs.FlushesAcked, fs.FlushesAbandoned, fs.DuplicateFlushes)
		fmt.Fprintf(out, "  final health: %d/%d nodes alive\n\n", o.LiveNodes, spec.Nodes)
	}
	if spec.Policy != "" {
		fmt.Fprintf(out, "closed-loop policy %q: %d epochs, %d actions applied\n",
			spec.Policy, o.Epochs, len(o.Actions))
		const maxShown = 12
		for i, a := range o.Actions {
			if i == maxShown {
				fmt.Fprintf(out, "  ... (%d more)\n", len(o.Actions)-maxShown)
				break
			}
			fmt.Fprintf(out, "  epoch %2d t=%v  %v\n", a.Epoch, a.At, a)
		}
		fmt.Fprintln(out)
	}
	if spec.Adaptive != nil {
		fmt.Fprintln(out, "adaptive controller trace:")
		for _, rcg := range o.Profiler.RateTrace {
			fmt.Fprintf(out, "  t=%v  %v -> %v  distance=%.4f converged=%v (resampled %d)\n",
				rcg.At, rcg.From, rcg.To, rcg.Distance, rcg.Converged, rcg.Resampled)
		}
		fmt.Fprintln(out)
	}
	if spec.Footprint != nil {
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
		cur := jessica2.BlockedPlacement(spec.Threads, spec.Nodes)
		next, moves := jessica2.PlanPlacement(o.TCM, cur, spec.Nodes)
		fmt.Fprintf(out, "placement plan: cross-volume %.0f -> %.0f bytes\n",
			jessica2.CrossVolume(o.TCM, cur), jessica2.CrossVolume(o.TCM, next))
		for _, mv := range moves {
			fmt.Fprintf(out, "  %s\n", mv)
		}
	}
	return nil
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
