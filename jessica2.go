// Package jessica2 is a library-level reproduction of the profiling system
// from "Adaptive Sampling-Based Profiling Techniques for Optimizing the
// Distributed JVM Runtime" (Lam, Luo, Wang — IPDPS 2010), built on a
// deterministic discrete-event simulation of the JESSICA2 distributed JVM.
//
// The library provides:
//
//   - a simulated cluster running a home-based lazy release consistency
//     (HLRC) global object space with object faulting, diff propagation,
//     distributed locks and barriers;
//   - fine-grained active correlation tracking via adaptive object
//     sampling, producing thread correlation maps (TCMs);
//   - sticky-set profiling via adaptive stack sampling (stack-invariant
//     mining) plus footprinting and resolution, feeding a migration cost
//     model;
//   - a thread migration engine and a correlation-driven global load
//     balancer;
//   - the paper's three SPLASH-2 workload ports (SOR, Barnes-Hut,
//     Water-Spatial) and synthetic workloads;
//   - experiment harnesses regenerating every table and figure of the
//     paper's evaluation.
//
// # Quick start
//
// The primary entry point is the epoch-driven Session: launch a workload,
// optionally attach profiling and a closed-loop policy, then step or run.
// At every epoch boundary the session pauses the cluster at a safe point,
// snapshots the live profiling state (incremental TCM, per-thread
// footprints, rate trace, kernel/network counters) and lets the policy
// act — migrate threads (with sticky-set prefetch), re-home objects,
// retune the sampling rate — before the run resumes:
//
//	cfg := jessica2.DefaultConfig()
//	cfg.Epoch = 50 * jessica2.Millisecond
//	sess := jessica2.NewSession(cfg)
//	sess.Launch(jessica2.NewKVMix(), jessica2.Params{Threads: 8, Seed: 1})
//	sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate})
//	sess.SetPolicy(jessica2.NewRebalancePolicy())
//	rep, err := sess.Run()
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(rep)
//
// Manual stepping exposes the loop directly:
//
//	for {
//		done, err := sess.Step(50 * jessica2.Millisecond)
//		if err != nil || done {
//			break
//		}
//		snap := sess.Snapshot()
//		fmt.Println(snap.Now, snap.Kernel.Faults)
//	}
package jessica2

import (
	"fmt"
	"strings"

	"jessica2/internal/balancer"
	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/migration"
	"jessica2/internal/network"
	"jessica2/internal/profile"
	"jessica2/internal/sampling"
	"jessica2/internal/scenario"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/stack"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
	"jessica2/internal/workload"
)

// --- re-exported core vocabulary --------------------------------------------

// Time is virtual simulation time in nanoseconds.
type Time = sim.Time

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// TrackingMode selects how object accesses are logged for correlation.
type TrackingMode = gos.TrackingMode

// Tracking modes.
const (
	TrackingOff     = gos.TrackingOff
	TrackingSampled = gos.TrackingSampled
	TrackingExact   = gos.TrackingExact
)

// Rate is the paper's nX page-relative sampling-rate notation.
type Rate = sampling.Rate

// FullRate samples every object.
const FullRate = sampling.FullRate

// Thread is a distributed-JVM thread handle, passed to workload bodies.
type Thread = gos.Thread

// Kernel is the distributed JVM instance.
type Kernel = gos.Kernel

// Class is a registered shared-object class.
type Class = heap.Class

// Object is a shared object in the global object space.
type Object = heap.Object

// ObjectID is a shared object's dense identifier (used by re-home actions).
type ObjectID = heap.ObjectID

// Registry is the class/object registry of a kernel (Kernel.Reg).
type Registry = heap.Registry

// Method names a Java method for shadow stack frames.
type Method = stack.Method

// Characteristics describes a workload (Table I metadata).
type Characteristics = workload.Characteristics

// Workload is a benchmark runnable on the DJVM.
type Workload = workload.Workload

// Params configures a workload launch.
type Params = workload.Params

// TCM is the thread correlation map.
type TCM = tcm.Map

// Footprint is a per-class sticky-set byte composition.
type Footprint = sticky.Footprint

// InvariantRef is a mined stack-invariant reference.
type InvariantRef = stack.InvariantRef

// Resolution is a resolved sticky set ready to prefetch.
type Resolution = sticky.Resolution

// Assignment maps thread ids to node ids.
type Assignment = balancer.Assignment

// ProfileConfig selects profiling subsystems (see package core).
type ProfileConfig = core.Config

// StackConfig configures the stack profiler.
type StackConfig = core.StackConfig

// AdaptiveConfig configures the adaptive rate controller.
type AdaptiveConfig = core.AdaptiveConfig

// FootprintConfig configures sticky-set footprinting.
type FootprintConfig = core.FootprintConfig

// MigrationOutcome reports one thread migration.
type MigrationOutcome = migration.Outcome

// Failure-tolerance vocabulary (see gos/failure.go): FailureConfig arms and
// tunes the layer via Config.Failure; HealthSnapshot/NodeHealth surface the
// detector's cluster view in session snapshots; FailureStats counts its
// work (heartbeats, lease expiries, evacuations, flush retries).
type (
	FailureConfig  = gos.FailureConfig
	FailureStats   = gos.FailureStats
	HealthSnapshot = gos.HealthSnapshot
	NodeHealth     = gos.NodeHealth
)

// DefaultFailureConfig returns the calibrated failure-layer timings
// (20ms heartbeats, 60ms leases, 30ms flush timeout with capped backoff).
var DefaultFailureConfig = gos.DefaultFailureConfig

// Workload types (paper benchmarks and synthetics).
type (
	// SOR is the red-black successive over-relaxation kernel.
	SOR = workload.SOR
	// BarnesHut is the hierarchical N-body simulation.
	BarnesHut = workload.BarnesHut
	// WaterSpatial is the molecular dynamics application.
	WaterSpatial = workload.WaterSpatial
	// Synthetic is the configurable microbenchmark.
	Synthetic = workload.Synthetic
	// LU is the SPLASH-2 blocked dense LU factorization kernel.
	LU = workload.LU
	// KVMix is the phase-shifting key-value transaction mix.
	KVMix = workload.KVMix
	// ServeMix is the open-loop RPC request-serving workload: zipf-skewed
	// tenants, fan-out call graphs over shared session/cache objects, and
	// an injected arrival schedule (Scenario.Arrivals or SetSchedule).
	ServeMix = workload.ServeMix
	// ServeStats is the open-loop serving view (arrivals, goodput,
	// in-flight depth, latency percentiles, and — when the robustness
	// layer is on — shed/retry/hedge/breaker accounting plus
	// goodput-within-SLO) surfaced in Snapshot.Serve.
	ServeStats = workload.ServeStats
	// RobustConfig arms ServeMix's request-lifecycle robustness layer:
	// per-request deadlines, admission control (load shedding), bounded
	// retries with capped backoff, quantile-delayed hedging, and per-node
	// circuit breakers fed by the failure detector. Assign to
	// ServeMix.Robust before Launch; nil keeps the classic byte-identical
	// serving path.
	RobustConfig = workload.RobustConfig
	// OpenLoop is the interface schedule-driven workloads implement.
	OpenLoop = workload.OpenLoop
)

// Workload constructors (paper-scale defaults).
var (
	NewSOR          = workload.NewSOR
	NewSORSmall     = workload.NewSORSmall
	NewBarnesHut    = workload.NewBarnesHut
	NewWaterSpatial = workload.NewWaterSpatial
	NewSynthetic    = workload.NewSynthetic
	NewLU           = workload.NewLU
	NewLUSmall      = workload.NewLUSmall
	NewKVMix        = workload.NewKVMix
	NewServeMix     = workload.NewServeMix
	// DefaultRobustConfig is the full protection stack at serving-scale
	// defaults (20ms deadline, shedding, retries, P95 hedging, breakers).
	DefaultRobustConfig = workload.DefaultRobustConfig
)

// --- scenario engine ---------------------------------------------------------

// Scenario is a deterministic, seed-driven perturbation schedule (CPU
// heterogeneity, link ramps, jitter, transient slowdowns, phase shifts)
// composed with a base workload run; see package scenario.
type Scenario = scenario.Scenario

// ScenarioRamp, ScenarioJitter, ScenarioSlowdown and ScenarioPhaseShift are
// the perturbation vocabulary of a Scenario.
type (
	ScenarioRamp       = scenario.Ramp
	ScenarioJitter     = scenario.Jitter
	ScenarioSlowdown   = scenario.Slowdown
	ScenarioPhaseShift = scenario.PhaseShift
)

// Ramp parameters.
const (
	RampLatency   = scenario.RampLatency
	RampBandwidth = scenario.RampBandwidth
)

// ScenarioCrash, ScenarioPartition and ScenarioFlushLoss are the failure
// events of a Scenario: node crash/restart windows, transient network
// partitions, and probabilistic loss/duplication of dedicated profile
// flushes. All are seed-deterministic; see the scenario package and the
// "crash", "flaky" and "partition" presets.
type (
	ScenarioCrash     = scenario.Crash
	ScenarioPartition = scenario.Partition
	ScenarioFlushLoss = scenario.FlushLoss
)

// Arrivals is the open-loop traffic vocabulary of a Scenario: a
// seed-deterministic Poisson, diurnal or burst arrival schedule that the
// session materializes into request arrival times for open-loop workloads
// (ServeMix). Same seed ⇒ byte-identical schedule; see scenario/arrivals.go
// and the "poisson", "diurnal" and "burst" presets.
type (
	Arrivals    = scenario.Arrivals
	ArrivalKind = scenario.ArrivalKind
)

// Arrival kinds.
const (
	ArrivePoisson = scenario.ArrivePoisson
	ArriveDiurnal = scenario.ArriveDiurnal
	ArriveBurst   = scenario.ArriveBurst
)

// ScenarioPreset builds one of the named built-in scenarios; ParseScenario
// accepts comma-separated preset lists ("hetero,jitter"). See
// scenario.PresetNames for the vocabulary.
var (
	ScenarioPreset = scenario.Preset
	ParseScenario  = scenario.Parse
)

// Phase is the workload phase register the scenario engine drives.
type Phase = workload.Phase

// Profiling config helpers.
var (
	DefaultStackConfig    = core.DefaultStackConfig
	DefaultAdaptiveConfig = core.DefaultAdaptiveConfig
	DefaultResolverConfig = sticky.DefaultResolverConfig
	DefaultFootprinter    = sticky.DefaultFootprinterConfig
)

// Distance metrics (paper equations 1 and 2) and accuracy.
var (
	DistanceEUC = tcm.DistanceEUC
	DistanceABS = tcm.DistanceABS
	Accuracy    = tcm.Accuracy
)

// --- session facade ----------------------------------------------------------

// Config assembles a DJVM instance.
type Config struct {
	// Nodes is the cluster size (node 0 is the master JVM).
	Nodes int
	// Tracking selects the correlation-tracking mode.
	Tracking TrackingMode
	// TransferOALs ships OALs to the master (disable to isolate
	// collection CPU cost as in Table II).
	TransferOALs bool
	// DistributedTCM enables the paper's §VI scalability extension:
	// workers pre-reduce their OALs into per-object summaries.
	DistributedTCM bool
	// OALFlushEntries overrides the buffered-entry threshold that triggers
	// a dedicated profile flush to the master (0 keeps the default). Lower
	// thresholds ship more, smaller, dedicated CatOAL messages — the
	// traffic class failure scenarios can drop or duplicate.
	OALFlushEntries int
	// Scenario, when non-nil, perturbs the run with the fault-injection
	// scenario engine (heterogeneous CPUs, link ramps, jitter, transient
	// slowdowns, workload phase shifts, node crashes, partitions, lossy
	// profile flushes). Same-seed runs stay deterministic.
	Scenario *Scenario
	// Failure, when non-nil, arms the runtime's failure-tolerance layer:
	// heartbeat/lease node-death detection with safe-point thread
	// evacuation, reliable (timeout + backoff + dedup) profile flushes,
	// and graceful TCM degradation for dead nodes' stale summaries. Use
	// DefaultFailureConfig for calibrated timings; leave nil to keep the
	// classic fail-free protocol byte-identical.
	Failure *FailureConfig
	// Epoch is the closed-loop stepping period Session.Run and RunUntil
	// use when a policy is installed (Step takes an explicit period).
	Epoch Time
	// Profile configures profile-store persistence: Load warm-starts the
	// run from a stored profile (fingerprint-checked; a mismatch degrades
	// to a cold start with Session.ProfileWarning set, never a session
	// error), Save arms end-of-run capture via Session.CapturedProfile.
	Profile ProfileIO
}

// DefaultConfig mirrors the paper's 8-node Fast Ethernet testbed with
// sampled correlation tracking enabled.
func DefaultConfig() Config {
	return Config{
		Nodes:        8,
		Tracking:     TrackingSampled,
		TransferOALs: true,
	}
}

// kernelConfig resolves the config over the kernel defaults, which carry
// the calibrated network and CPU cost models.
func (cfg Config) kernelConfig() gos.Config {
	kcfg := gos.DefaultConfig()
	if cfg.Nodes > 0 {
		kcfg.Nodes = cfg.Nodes
	}
	kcfg.Tracking = cfg.Tracking
	kcfg.TransferOALs = cfg.TransferOALs
	kcfg.DistributedTCM = cfg.DistributedTCM
	if cfg.OALFlushEntries > 0 {
		kcfg.OALFlushEntries = cfg.OALFlushEntries
	}
	kcfg.Failure = cfg.Failure
	return kcfg
}

// Closed-loop vocabulary: policies observe epoch snapshots and return
// actions the session applies mid-run (see package internal/session).
type (
	// Policy is the pluggable observe→decide→act controller.
	Policy = session.Policy
	// Snapshot is the live profiling state at an epoch boundary.
	Snapshot = session.Snapshot
	// HotObject is one newly shared object in a snapshot.
	HotObject = session.HotObject
	// Action is one closed-loop decision (sealed vocabulary below).
	Action = session.Action
	// MigrateThread moves a thread at its next safe point.
	MigrateThread = session.MigrateThread
	// RehomeObject migrates an object's home node.
	RehomeObject = session.RehomeObject
	// SetSamplingRate retunes the uniform sampling rate cluster-wide.
	SetSamplingRate = session.SetSamplingRate
	// AppliedAction is one logged executed decision.
	AppliedAction = session.AppliedAction
	// NopPolicy is the passive baseline policy.
	NopPolicy = session.NopPolicy
	// RebalancePolicy is the shipped TCM-driven placement + hot-object
	// home-rebalancing policy with sticky-set prefetch migration.
	RebalancePolicy = session.RebalancePolicy
)

// NewRebalancePolicy returns the shipped closed-loop optimizer.
var NewRebalancePolicy = session.NewRebalancePolicy

// --- profile store ----------------------------------------------------------

// Profile-store vocabulary (see package internal/profile): a StoredProfile
// is the end-of-run artifact — final TCM, thread placement, hot-object
// homes, sticky footprints, rate trace and decision log — serialized to a
// versioned, deterministic, self-describing binary format and used to
// warm-start later runs of the same workload.
type (
	// StoredProfile is the persisted end-of-run profiling artifact.
	// (ProfileConfig, above, configures the *live* profiling subsystems —
	// the two are unrelated despite the shared prefix.)
	StoredProfile = profile.Profile
	// ProfileFingerprint identifies the run a profile was captured from
	// (workload, scenario, nodes, threads, seed); loads are accepted only
	// on an exact match.
	ProfileFingerprint = profile.Fingerprint
	// ProfileIO wires a session to the profile store (Config.Profile).
	ProfileIO = session.ProfileIO
	// ProfileRateChange is one stored adaptive-controller decision.
	ProfileRateChange = profile.RateChange
	// ProfileDecision is one stored applied policy decision.
	ProfileDecision = profile.Decision
	// WarmStartPolicy is the profile-guided closed-loop controller: it
	// replays the stored hot-object homes early and drives the sampling
	// rate from the live-vs-stored TCM divergence signal, spending the
	// sampling budget only where the live run diverges.
	WarmStartPolicy = session.WarmStartPolicy
)

// ProfileVersion is the profile store's current format version; Decode
// rejects newer versions with ErrProfileVersion.
const ProfileVersion = profile.Version

// Profile store functions: binary codec, file round trip, and the
// divergence metric (total-variation distance of shape-normalized maps)
// behind Snapshot.Divergence.
var (
	EncodeProfile     = profile.Encode
	DecodeProfile     = profile.Decode
	SaveProfile       = profile.Save
	LoadProfile       = profile.Load
	ProfileDivergence = profile.Divergence
)

// Profile store errors (typed, matchable with errors.Is).
var (
	// ErrProfileBadMagic rejects data that is not a jessica2 profile.
	ErrProfileBadMagic = profile.ErrBadMagic
	// ErrProfileVersion rejects forward-incompatible format versions.
	ErrProfileVersion = profile.ErrVersion
	// ErrProfileCorrupt rejects truncated or bit-flipped payloads.
	ErrProfileCorrupt = profile.ErrCorrupt
)

// NewWarmStartPolicy returns the profile-guided policy (RebalancePolicy
// inner optimizer, 0.10/0.35 divergence hysteresis, 1X floor rate).
var NewWarmStartPolicy = session.NewWarmStartPolicy

// Session lifecycle errors.
var (
	// ErrStarted rejects configuration calls after stepping has begun.
	ErrStarted = session.ErrStarted
	// ErrFinished rejects Run on a completed session.
	ErrFinished = session.ErrFinished
	// ErrNoWorkload rejects stepping before any Launch.
	ErrNoWorkload = session.ErrNoWorkload
	// ErrNotFinished rejects Report before completion.
	ErrNotFinished = session.ErrNotFinished
)

// Session is an epoch-driven closed-loop run of the distributed JVM: the
// primary API. Construction is chainable; configuration errors surface on
// the first call that uses them.
type Session struct {
	s *session.Session
}

// NewSession builds a session from the config. An invalid configuration is
// recorded and returned by the first Launch/Step/Run call.
func NewSession(cfg Config) *Session {
	return &Session{s: session.New(session.Config{
		Kernel:   cfg.kernelConfig(),
		Scenario: cfg.Scenario,
		Epoch:    cfg.Epoch,
		Profile:  cfg.Profile,
	})}
}

// Err returns the sticky configuration error, if any — an invalid scenario
// spec surfaces here (and from the first Launch/Step/Run) rather than
// silently misbehaving mid-run.
func (s *Session) Err() error { return s.s.Err() }

// Kernel exposes the underlying DJVM (advanced use: allocation, custom
// threads, migration). Nil until construction succeeded.
func (s *Session) Kernel() *Kernel { return s.s.Kernel() }

// Phase exposes the workload phase register the scenario engine drives.
func (s *Session) Phase() *Phase { return s.s.Phase() }

// Launch registers a workload's classes and spawns its threads. When a
// scenario drives the session and the caller installed no phase register
// of its own, the session's register rides along so phase-aware workloads
// follow the scenario's phase shifts.
func (s *Session) Launch(w Workload, p Params) error { return s.s.Launch(w, p) }

// AttachProfiling wires the profiling subsystems. Call after Launch and
// before the first step.
func (s *Session) AttachProfiling(cfg ProfileConfig) (*Profiler, error) {
	p, err := s.s.AttachProfiling(cfg)
	if err != nil {
		return nil, err
	}
	return &Profiler{p: p}, nil
}

// SetPolicy installs the closed-loop policy consulted at every epoch
// boundary; nil clears it. Must precede the first step.
func (s *Session) SetPolicy(p Policy) error { return s.s.SetPolicy(p) }

// Step advances the run by one epoch and processes the boundary (snapshot,
// policy Observe, actions). It reports completion; stepping a finished
// session is a no-op returning true.
func (s *Session) Step(epoch Time) (bool, error) { return s.s.Step(epoch) }

// RunUntil advances the run to absolute virtual time t, processing epoch
// boundaries every Config.Epoch when a policy is installed.
func (s *Session) RunUntil(t Time) (bool, error) { return s.s.RunUntil(t) }

// Run executes the session to completion — stepping in Config.Epoch
// increments when a policy is installed — and returns the report.
func (s *Session) Run() (*Report, error) {
	if _, err := s.s.Run(); err != nil {
		return nil, err
	}
	return &Report{s: s.s}, nil
}

// Snapshot captures the live profiling state at the current pause point
// without charging simulated CPU: observing a paused run does not change it.
func (s *Session) Snapshot() *Snapshot { return s.s.Snapshot() }

// Done reports whether the run has completed.
func (s *Session) Done() bool { return s.s.Done() }

// Now returns the current virtual time.
func (s *Session) Now() Time { return s.s.Now() }

// Epochs reports how many epoch boundaries have been processed.
func (s *Session) Epochs() int { return s.s.Epochs() }

// Actions returns the log of executed policy decisions.
func (s *Session) Actions() []AppliedAction { return s.s.Actions() }

// MigrationHistory returns the completed thread migrations in order.
func (s *Session) MigrationHistory() []MigrationOutcome {
	return append([]MigrationOutcome(nil), s.s.MigrationEngine().History...)
}

// MigrationEngine returns the engine that executes this session's thread
// migrations, for workloads that migrate threads by hand; its migrations
// land in MigrationHistory like a policy's.
func (s *Session) MigrationEngine() *migration.Engine { return s.s.MigrationEngine() }

// Fingerprint returns the run's profile fingerprint (valid after the first
// Launch); profiles captured from this run are stamped with it.
func (s *Session) Fingerprint() ProfileFingerprint { return s.s.Fingerprint() }

// ProfileWarning reports why a configured Config.Profile.Load was rejected
// ("" when none was configured, or when it was accepted). A rejected load
// degrades to a cold start; it is never the sticky session error.
func (s *Session) ProfileWarning() string { return s.s.ProfileWarning() }

// CapturedProfile assembles the end-of-run profile artifact. It requires a
// completed session with Config.Profile.Save armed; capture only reads
// state, so a Save-armed run is byte-identical to an unarmed one.
func (s *Session) CapturedProfile() (*StoredProfile, error) { return s.s.CapturedProfile() }

// Report returns the completed run's report, or ErrNotFinished while the
// run is still in progress.
func (s *Session) Report() (*Report, error) {
	if err := s.s.Finished(); err != nil {
		return nil, err
	}
	return &Report{s: s.s}, nil
}

// Profiler wraps the attached profiling subsystem.
type Profiler struct {
	p *core.Profiler
}

// Invariants returns the mined stack-invariant references for a thread.
func (p *Profiler) Invariants(tid int) []InvariantRef { return p.p.Invariants(tid) }

// Footprint returns a thread's sticky-set footprint estimate.
func (p *Profiler) Footprint(tid int) Footprint { return p.p.Footprint(tid) }

// Resolve computes a thread's sticky set for prefetching.
func (p *Profiler) Resolve(tid int) *Resolution { return p.p.Resolve(tid) }

// RateTrace returns the adaptive controller's decision log.
func (p *Profiler) RateTrace() []core.RateChange { return p.p.RateTrace }

// StackCPU returns total virtual CPU charged to stack sampling.
func (p *Profiler) StackCPU() Time { return p.p.StackCPU }

// Core exposes the underlying core profiler for advanced use.
func (p *Profiler) Core() *core.Profiler { return p.p }

// Report gives access to run results.
type Report struct {
	s *session.Session
}

// ExecTime is the workload execution time (paper tables' metric).
func (r *Report) ExecTime() Time { return r.s.ExecTime() }

// TCM builds the thread correlation map from all collected OALs.
func (r *Report) TCM() *TCM { return r.s.TCMNow() }

// KernelStats returns protocol/profiling counters.
func (r *Report) KernelStats() gos.KernelStats { return r.s.Kernel().Stats() }

// NetworkStats returns per-category traffic stats.
func (r *Report) NetworkStats() network.Stats { return r.s.Kernel().Net.Stats() }

// OALBytes is profiling traffic volume.
func (r *Report) OALBytes() int64 {
	st := r.s.Kernel().Net.Stats()
	return st.CatBytes(network.CatOAL)
}

// GOSBytes is protocol traffic volume (data + control + headers).
func (r *Report) GOSBytes() int64 {
	st := r.s.Kernel().Net.Stats()
	return st.CatBytes(network.CatGOSData) + st.CatBytes(network.CatControl) + st.HeaderBytesTotal
}

// TCMComputeTime is the master analyzer's CPU (dedicated machine).
func (r *Report) TCMComputeTime() Time { return r.s.Kernel().Master().ComputeTime() }

// HomeAffinity exports the thread×node shared-volume matrix (the "home
// effect" input for home-aware placement planning).
func (r *Report) HomeAffinity() [][]float64 {
	k := r.s.Kernel()
	return k.Master().HomeAffinity(k.NumThreads(), k.NumNodes())
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var sb strings.Builder
	st := r.KernelStats()
	names := r.s.Workloads()
	fmt.Fprintf(&sb, "workloads:         %s\n", strings.Join(names, ", "))
	fmt.Fprintf(&sb, "execution time:    %v\n", r.ExecTime())
	fmt.Fprintf(&sb, "intervals:         %d\n", st.Intervals)
	fmt.Fprintf(&sb, "remote faults:     %d (%d KB)\n", st.Faults, st.FaultBytes/1024)
	fmt.Fprintf(&sb, "correlation logs:  %d\n", st.CorrelationLogs)
	fmt.Fprintf(&sb, "barriers/locks:    %d / %d\n", st.Barriers, st.LockAcquires)
	fmt.Fprintf(&sb, "OAL traffic:       %d KB\n", r.OALBytes()/1024)
	fmt.Fprintf(&sb, "GOS traffic:       %d KB\n", r.GOSBytes()/1024)
	fmt.Fprintf(&sb, "TCM compute time:  %v\n", r.TCMComputeTime())
	return sb.String()
}

// --- balancing & migration helpers ------------------------------------------

// PlanPlacement computes an improved thread placement from a TCM.
func PlanPlacement(m *TCM, current Assignment, nodes int) (Assignment, []balancer.Move) {
	return balancer.Plan(m, current, balancer.DefaultConfig(nodes))
}

// PlanPlacementHomeAware additionally weighs each thread's affinity to the
// nodes homing its data (the paper's §VI "home effect"); homeAffinity
// comes from Report.HomeAffinity.
func PlanPlacementHomeAware(m *TCM, current Assignment, nodes int, homeAffinity [][]float64, homeWeight float64) (Assignment, []balancer.Move) {
	cfg := balancer.DefaultConfig(nodes)
	cfg.HomeAffinity = homeAffinity
	cfg.HomeWeight = homeWeight
	return balancer.Plan(m, current, cfg)
}

// HomeMove is one executed or advised object home migration.
type HomeMove = gos.HomeMove

// AdviseHomeMigrations recommends object re-homings from the collected
// correlation state: objects whose accessors all run on one node, homed
// elsewhere, should move there.
func (r *Report) AdviseHomeMigrations(assignment Assignment, minBytes int) []HomeMove {
	k := r.s.Kernel()
	return k.AdviseHomes(k.Master().Summary(), assignment, minBytes)
}

// CrossVolume is the correlation volume split across nodes by a placement.
var CrossVolume = balancer.CrossVolume

// LocalVolume is the collocated correlation volume of a placement.
var LocalVolume = balancer.LocalVolume

// BlockedPlacement is the spawn-order default placement.
var BlockedPlacement = balancer.Blocked
