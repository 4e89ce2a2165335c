// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated distributed JVM. Each experiment has a
// Run function returning a structured result whose String method renders
// the paper-style table; cmd/djvmbench and the root bench suite call these.
package experiments

import (
	"fmt"

	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/network"
	"jessica2/internal/pagesim"
	"jessica2/internal/profile"
	"jessica2/internal/runner"
	"jessica2/internal/sampling"
	"jessica2/internal/scenario"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
	"jessica2/internal/workload"
)

// App identifies one of the benchmarks.
type App int

// The paper's three applications plus the scenario-era additions.
const (
	AppSOR App = iota
	AppBarnesHut
	AppWaterSpatial
	AppLU
	AppKVMix
	AppSynthetic
	AppServe
)

func (a App) String() string {
	switch a {
	case AppSOR:
		return "SOR"
	case AppBarnesHut:
		return "Barnes-Hut"
	case AppWaterSpatial:
		return "Water-Spatial"
	case AppLU:
		return "LU"
	case AppKVMix:
		return "KVMix"
	case AppSynthetic:
		return "Synthetic"
	case AppServe:
		return "ServeMix"
	default:
		return fmt.Sprintf("app(%d)", int(a))
	}
}

// Apps lists the paper's benchmarks in paper order; the tables iterate
// these.
var Apps = []App{AppSOR, AppBarnesHut, AppWaterSpatial}

// Scale shrinks the problem sizes for quick test runs; 1 = paper scale.
// Values > 1 divide dataset dimensions (rows, bodies, molecules, rounds
// are kept) so CI-speed runs preserve the experiment structure.
type Scale int

// NewWorkload instantiates an app. small selects the Table V dataset for
// SOR (1K×1K); scale > 1 shrinks datasets for fast tests. The synthetic
// and serving apps build at their default size at every scale.
func NewWorkload(a App, small bool, scale Scale) workload.Workload {
	if scale < 1 {
		scale = 1
	}
	s := int(scale)
	switch a {
	case AppSOR:
		w := workload.NewSOR()
		if small {
			w = workload.NewSORSmall()
		}
		w.RowsN /= s
		w.Cols /= s
		if w.RowsN < 32 {
			w.RowsN = 32
		}
		if w.Cols < 32 {
			w.Cols = 32
		}
		return w
	case AppBarnesHut:
		w := workload.NewBarnesHut()
		w.NBodies /= s
		if w.NBodies < 128 {
			w.NBodies = 128
		}
		return w
	case AppWaterSpatial:
		w := workload.NewWaterSpatial()
		w.NMol /= s
		if w.NMol < 64 {
			w.NMol = 64
		}
		return w
	case AppLU:
		w := workload.NewLU()
		w.N /= s
		if w.N < 4*w.Block {
			w.N = 4 * w.Block
		}
		return w
	case AppKVMix:
		w := workload.NewKVMix()
		w.Keys /= s
		if w.Keys < 256 {
			w.Keys = 256
		}
		w.TxnsPerRound /= s
		if w.TxnsPerRound < 16 {
			w.TxnsPerRound = 16
		}
		w.HotSpan = w.Keys / 8
		return w
	case AppSynthetic:
		return workload.NewSynthetic()
	case AppServe:
		return workload.NewServeMix()
	}
	panic("experiments: unknown app")
}

// DataSetLabel is the Table IV/V "Data Set Size" column.
func DataSetLabel(a App, small bool, scale Scale) string {
	w := NewWorkload(a, small, scale)
	return w.Characteristics().DataSet
}

// Spec describes one simulated run: every setting a run needs, as plain
// data. Run is a pure function of it, so equal specs give equal outcomes.
type Spec struct {
	App      App
	Small    bool // Table V datasets (SOR 1K×1K)
	Scale    Scale
	Nodes    int
	Threads  int
	Seed     uint64
	Tracking gos.TrackingMode
	// Rate is the uniform sampling rate (0 = leave full-sampling gaps).
	Rate sampling.Rate
	// TransferOALs ships OALs to the master (Table II disables).
	TransferOALs bool
	// DistributedTCM enables worker-side OAL reduction (§VI extension).
	DistributedTCM bool
	// Stack / Footprint / Adaptive attach the respective profilers.
	Stack     *core.StackConfig
	Footprint *core.FootprintConfig
	Adaptive  *core.AdaptiveConfig
	// PageTracker attaches the page-based baseline (Fig. 1b).
	PageTracker bool
	// Scenario, when non-nil, perturbs the run with the fault-injection
	// scenario engine (Figure S sensitivity sweeps). An open-loop app takes
	// its arrival schedule from Scenario.Arrivals.
	Scenario *scenario.Scenario

	// The session-side settings below are omitted from the wire when zero.

	// Policy names the closed-loop policy: "" (none), "nop", "rebalance"
	// or "warmstart". It acts at a boundary every Epoch; with Epoch zero, a
	// pilot run without the policy measures the exec time and the epoch
	// becomes 1/Epochs of it.
	Policy string   `json:",omitempty"`
	Epoch  sim.Time `json:",omitempty"`
	Epochs int      `json:",omitempty"`
	// Failure, when non-nil, arms the failure detector and recovery layer.
	Failure *gos.FailureConfig `json:",omitempty"`
	// Protect is an open-loop app's serving protection level: "" (the
	// static path), "shed" (deadlines and admission control) or "full"
	// (plus retries, hedging and circuit breakers).
	Protect string `json:",omitempty"`
	// LoadProfile warm-starts the run from a stored profile, which the
	// warmstart policy also replays; SaveProfile captures the end-of-run
	// profile into Out.Captured. The pilot run does neither.
	LoadProfile *profile.Profile `json:",omitempty"`
	SaveProfile bool             `json:",omitempty"`
}

// Validate reports the first setting that makes the spec unrunnable.
func (s *Spec) Validate() error {
	if s.App < AppSOR || s.App > AppServe {
		return fmt.Errorf("unknown app %v", s.App)
	}
	if s.Nodes < 1 {
		return fmt.Errorf("need at least one node, got %d", s.Nodes)
	}
	if s.Threads < 1 {
		return fmt.Errorf("need at least one thread, got %d", s.Threads)
	}
	if s.Scenario != nil {
		if err := s.Scenario.Validate(s.Nodes); err != nil {
			return fmt.Errorf("invalid scenario: %w", err)
		}
	}
	if s.App == AppServe && (s.Scenario == nil || s.Scenario.Arrivals == nil) {
		return fmt.Errorf("open-loop app %v needs Scenario.Arrivals", s.App)
	}
	if s.Protect != "" {
		if robustConfig(s.Protect) == nil {
			return fmt.Errorf("unknown protection level %q (have shed, full)", s.Protect)
		}
		if s.App != AppServe {
			return fmt.Errorf("protection %s needs an open-loop app (serve), got %v", s.Protect, s.App)
		}
	}
	pol, err := newPolicy(s.Policy, nil)
	if err != nil {
		return err
	}
	if s.Epoch < 0 {
		return fmt.Errorf("negative epoch %v", s.Epoch)
	}
	if pol != nil && s.Epoch == 0 && s.Epochs < 1 {
		return fmt.Errorf("policy %s needs an epoch or an epoch count", s.Policy)
	}
	if s.LoadProfile != nil {
		if err := s.LoadProfile.Validate(); err != nil {
			return fmt.Errorf("invalid stored profile: %w", err)
		}
	}
	return nil
}

// newPolicy builds the named closed-loop policy (nil for ""); prof is the
// stored profile the warmstart policy replays.
func newPolicy(name string, prof *profile.Profile) (session.Policy, error) {
	switch name {
	case "":
		return nil, nil
	case "nop":
		return session.NopPolicy{}, nil
	case "rebalance":
		return session.NewRebalancePolicy(), nil
	case "warmstart":
		return session.NewWarmStartPolicy(prof), nil
	}
	return nil, fmt.Errorf("unknown policy %q (have nop, rebalance, warmstart)", name)
}

// robustConfig maps a protection level onto ServeMix's robustness layer
// (nil for the static path or an unknown level).
func robustConfig(level string) *workload.RobustConfig {
	switch level {
	case "shed":
		// Deadline and admission control only: the tail is capped at the
		// SLO, but nothing stranded on a dead node is rescued.
		full := workload.DefaultRobustConfig()
		return &workload.RobustConfig{Deadline: full.Deadline, Capacity: full.Capacity}
	case "full":
		return workload.DefaultRobustConfig()
	}
	return nil
}

// newSession builds the session spec describes, ready to run: the kernel
// with its scenario and failure detector, load launched, the page tracker
// (returned, nil unless spec.PageTracker), the profilers and policy (nil
// for none). Callers pass the spec's own workload and policy or, as the
// figure cells do, tuned stand-ins.
func newSession(spec Spec, load workload.Workload, policy session.Policy) (*session.Session, *pagesim.Tracker, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	kcfg := gos.DefaultConfig()
	kcfg.Nodes = spec.Nodes
	kcfg.Tracking = spec.Tracking
	kcfg.TransferOALs = spec.TransferOALs
	kcfg.DistributedTCM = spec.DistributedTCM
	kcfg.Failure = spec.Failure
	s := session.New(session.Config{
		Kernel:   kcfg,
		Scenario: spec.Scenario,
		Epoch:    spec.Epoch,
		Profile:  session.ProfileIO{Load: spec.LoadProfile, Save: spec.SaveProfile},
	})
	if err := s.Launch(load, workload.Params{Threads: spec.Threads, Seed: spec.Seed}); err != nil {
		return nil, nil, err
	}
	var tracker *pagesim.Tracker
	if spec.PageTracker {
		tracker = pagesim.NewTracker(spec.Threads)
		s.Kernel().AddObserver(tracker)
	}
	if _, err := s.AttachProfiling(core.Config{
		Rate: spec.Rate, Stack: spec.Stack, Footprint: spec.Footprint, Adaptive: spec.Adaptive,
	}); err != nil {
		return nil, nil, err
	}
	if policy != nil {
		if err := s.SetPolicy(policy); err != nil {
			return nil, nil, err
		}
	}
	return s, tracker, nil
}

// Out is the outcome of one run.
type Out struct {
	Spec     Spec
	Exec     sim.Time
	Stats    gos.KernelStats
	Net      network.Stats
	TCM      *tcm.Map
	TCMCost  tcm.BuildCost
	TCMTime  sim.Time // master analyzer CPU (dedicated machine)
	PageTCM  *tcm.Map
	Profiler *core.Profiler
	// Footprints is the final per-thread sticky-set footprint (if
	// footprinting was enabled).
	Footprints map[int]sticky.Footprint
	SessionOut
}

// SessionOut is what a run reports beyond the profiling totals. It is
// plain data, and each field is omitted from the wire when zero.
type SessionOut struct {
	// AnalyzerTime is the master analyzer CPU when the run ends, before
	// the final TCM build charges it (Out.TCMTime is read after).
	AnalyzerTime sim.Time `json:"analyzer_time,omitempty"`
	// PilotExec and Epoch are the pilot's exec time and the epoch length
	// it chose (zero when the spec names no policy or gives an Epoch).
	PilotExec sim.Time `json:"pilot_exec,omitempty"`
	Epoch     sim.Time `json:"epoch,omitempty"`
	// Epochs counts the boundaries the policy saw; Actions are the policy
	// actions the session applied, no-ops left out.
	Epochs  int      `json:"epochs,omitempty"`
	Actions []Action `json:"actions,omitempty"`
	// Serve is an open-loop app's serving stats at the end of the run.
	Serve *workload.ServeStats `json:"serve,omitempty"`
	// Failure and LiveNodes are the failure layer's counters and the
	// nodes alive at the end (set only when Spec.Failure arms the layer).
	Failure   *gos.FailureStats `json:"failure,omitempty"`
	LiveNodes int               `json:"live_nodes,omitempty"`
	// ProfileWarning says why Spec.LoadProfile was rejected ("" when it
	// was accepted or not given); Captured is the end-of-run profile when
	// Spec.SaveProfile is set.
	ProfileWarning string           `json:"profile_warning,omitempty"`
	Captured       *profile.Profile `json:"captured,omitempty"`
}

// Action is one applied policy action as a typed record: exactly one of
// Migrate, Rehome and Rate is set.
type Action struct {
	Epoch   int                      `json:"epoch"`
	At      sim.Time                 `json:"at"`
	Migrate *session.MigrateThread   `json:"migrate,omitempty"`
	Rehome  *session.RehomeObject    `json:"rehome,omitempty"`
	Rate    *session.SetSamplingRate `json:"rate,omitempty"`
}

// String renders the action as the session's action vocabulary does.
func (a Action) String() string {
	switch {
	case a.Migrate != nil:
		return a.Migrate.String()
	case a.Rehome != nil:
		return a.Rehome.String()
	case a.Rate != nil:
		return a.Rate.String()
	}
	return "no action"
}

// ExecMs returns execution time in milliseconds.
func (o *Out) ExecMs() float64 { return o.Exec.Milliseconds() }

// OALKB is the profiling traffic in KB.
func (o *Out) OALKB() float64 { return float64(o.Net.CatBytes(network.CatOAL)) / 1024 }

// GOSKB is the protocol traffic (data + control + headers) in KB.
func (o *Out) GOSKB() float64 {
	return float64(o.Net.GOSBytes()) / 1024
}

// Run executes one spec deterministically: a pilot first when the policy
// needs its epoch calibrated, then the session, folded into an Out. It
// panics on a spec that Validate rejects.
func Run(spec Spec) *Out {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	out := &Out{Spec: spec}
	if spec.Policy != "" && spec.Epoch == 0 {
		pilot := spec
		pilot.Policy, pilot.LoadProfile, pilot.SaveProfile = "", nil, false
		out.PilotExec = Run(pilot).Exec
		if out.Epoch = out.PilotExec / sim.Time(spec.Epochs); out.Epoch <= 0 {
			out.Epoch = sim.Millisecond
		}
		spec.Epoch = out.Epoch
	}
	load := NewWorkload(spec.App, spec.Small, spec.Scale)
	if sm, ok := load.(*workload.ServeMix); ok {
		sm.Robust = robustConfig(spec.Protect)
	}
	policy, _ := newPolicy(spec.Policy, spec.LoadProfile) // Validate checked the name
	s, tracker, err := newSession(spec, load, policy)
	if err != nil {
		panic(err)
	}
	if out.Exec, err = s.Run(); err != nil {
		panic(err)
	}
	k := s.Kernel()
	out.Stats = k.Stats()
	out.Net = k.Net.Stats()
	out.Profiler = s.Profiler()
	out.AnalyzerTime = k.Master().ComputeTime()
	out.Epochs = s.Epochs()
	for _, a := range s.Actions() {
		if a.Note != "" {
			continue
		}
		rec := Action{Epoch: a.Epoch, At: a.At}
		switch act := a.Action.(type) {
		case session.MigrateThread:
			rec.Migrate = &act
		case session.RehomeObject:
			rec.Rehome = &act
		case session.SetSamplingRate:
			rec.Rate = &act
		}
		out.Actions = append(out.Actions, rec)
	}
	if ol, ok := load.(workload.OpenLoop); ok {
		out.Serve = ol.ServeStatsInto(nil, s.Now())
	}
	if k.FailureEnabled() {
		fs := k.FailureStats()
		out.Failure = &fs
		out.LiveNodes = k.HealthInto(nil).LiveNodes
	}
	out.ProfileWarning = s.ProfileWarning()
	if spec.SaveProfile {
		// Captured before the final TCM build, which charges the analyzer.
		if out.Captured, err = s.CapturedProfile(); err != nil {
			panic(err)
		}
	}
	if spec.Tracking != gos.TrackingOff {
		out.TCM, out.TCMCost = k.TCM()
		out.TCMTime = k.Master().ComputeTime()
	}
	if tracker != nil {
		out.PageTCM = tracker.Build()
	}
	if spec.Footprint != nil {
		out.Footprints = make(map[int]sticky.Footprint)
		for tid, fp := range out.Profiler.Footprinters {
			out.Footprints[tid] = fp.Footprint()
		}
	}
	return out
}

// RunAll executes the specs through the pool's worker fan-out and returns
// the outcomes in submission order. Every spec is an independent,
// seed-deterministic simulation (Run builds a private kernel, engine and
// workload per call), so the collected results — and any table or figure
// folded from them positionally — are byte-identical at any parallelism.
// A nil pool runs the specs inline, exactly like the historical loops.
func RunAll(p *runner.Pool, specs []Spec) []*Out {
	jobs := make([]func() *Out, len(specs))
	for i := range specs {
		spec := specs[i]
		jobs[i] = func() *Out { return Run(spec) }
	}
	return runner.Collect(p, jobs)
}

// The tracker implements gos.AccessObserver directly.
var _ gos.AccessObserver = (*pagesim.Tracker)(nil)
