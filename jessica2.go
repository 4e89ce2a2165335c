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
//	if _, err := sess.Run(); err != nil {
//		log.Fatal(err)
//	}
//	rep, err := sess.Report()
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
	"jessica2/internal/balancer"
	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/migration"
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
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Tracking modes select how object accesses are logged for correlation.
const (
	TrackingOff     = gos.TrackingOff
	TrackingSampled = gos.TrackingSampled
)

// Rate is the paper's nX page-relative sampling-rate notation.
type Rate = sampling.Rate

// FullRate samples every object.
const FullRate = sampling.FullRate

// Thread is a distributed-JVM thread handle, passed to workload bodies.
type Thread = gos.Thread

// Kernel is the distributed JVM instance.
type Kernel = gos.Kernel

// Object is a shared object in the global object space.
type Object = heap.Object

// Method names a Java method for shadow stack frames.
type Method = stack.Method

// Characteristics describes a workload (Table I metadata).
type Characteristics = workload.Characteristics

// Workload is a benchmark runnable on the DJVM.
type Workload = workload.Workload

// Params configures a workload launch.
type Params = workload.Params

// Resolution is a resolved sticky set ready to prefetch.
type Resolution = sticky.Resolution

// Assignment maps thread ids to node ids.
type Assignment = balancer.Assignment

// ProfileConfig selects profiling subsystems (see package core).
type ProfileConfig = core.Config

// FootprintConfig configures sticky-set footprinting.
type FootprintConfig = core.FootprintConfig

// MigrationOutcome reports one thread migration.
type MigrationOutcome = migration.Outcome

// FailureStats counts the failure-tolerance layer's work (heartbeats,
// lease expiries, evacuations, flush retries); see gos/failure.go.
type FailureStats = gos.FailureStats

// DefaultFailureConfig returns the calibrated failure-layer timings
// (20ms heartbeats, 60ms leases, 30ms flush timeout with capped backoff)
// for Config.Kernel.Failure.
var DefaultFailureConfig = gos.DefaultFailureConfig

// Workload types (paper benchmarks and synthetics).
type (
	// SOR is the red-black successive over-relaxation kernel.
	SOR = workload.SOR
	// KVMix is the phase-shifting key-value transaction mix.
	KVMix = workload.KVMix
	// RobustConfig arms ServeMix's request-lifecycle robustness layer:
	// per-request deadlines, admission control (load shedding), bounded
	// retries with capped backoff, quantile-delayed hedging, and per-node
	// circuit breakers fed by the failure detector. Assign to
	// ServeMix.Robust before Launch; nil keeps the classic byte-identical
	// serving path.
	RobustConfig = workload.RobustConfig
)

// Workload constructors (paper-scale defaults).
var (
	NewSOR          = workload.NewSOR
	NewBarnesHut    = workload.NewBarnesHut
	NewWaterSpatial = workload.NewWaterSpatial
	NewSynthetic    = workload.NewSynthetic
	NewLU           = workload.NewLU
	NewLUSmall      = workload.NewLUSmall
	NewKVMix        = workload.NewKVMix
	// NewServeMix builds the open-loop RPC request-serving workload:
	// zipf-skewed tenants, fan-out call graphs over shared session/cache
	// objects, and an injected arrival schedule (Scenario.Arrivals).
	NewServeMix = workload.NewServeMix
	// DefaultRobustConfig is the full protection stack at serving-scale
	// defaults (20ms deadline, shedding, retries, P95 hedging, breakers).
	DefaultRobustConfig = workload.DefaultRobustConfig
)

// --- scenario engine ---------------------------------------------------------

// Scenario is a deterministic, seed-driven perturbation schedule (CPU
// heterogeneity, link ramps, jitter, transient slowdowns, phase shifts)
// composed with a base workload run; see package scenario.
type Scenario = scenario.Scenario

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
type Arrivals = scenario.Arrivals

// ArrivePoisson is the Poisson arrival kind.
const ArrivePoisson = scenario.ArrivePoisson

// ScenarioPreset builds one of the named built-in scenarios; ParseScenario
// accepts comma-separated preset lists ("hetero,jitter"). See
// scenario.PresetNames for the vocabulary.
var (
	ScenarioPreset = scenario.Preset
	ParseScenario  = scenario.Parse
)

// Profiling config helpers.
var (
	DefaultStackConfig    = core.DefaultStackConfig
	DefaultAdaptiveConfig = core.DefaultAdaptiveConfig
	DefaultFootprinter    = sticky.DefaultFootprinterConfig
)

// Distance metrics (paper equations 1 and 2) and accuracy.
var (
	DistanceEUC = tcm.DistanceEUC
	DistanceABS = tcm.DistanceABS
	Accuracy    = tcm.Accuracy
)

// --- session -----------------------------------------------------------------

// Config assembles a session: the kernel configuration, an optional
// fault-injection scenario, the closed-loop epoch and profile-store
// persistence (see package internal/session).
type Config = session.Config

// DefaultConfig mirrors the paper's 8-node Fast Ethernet testbed with
// sampled correlation tracking enabled.
func DefaultConfig() Config {
	k := gos.DefaultConfig()
	k.Tracking = gos.TrackingSampled
	return Config{Kernel: k}
}

// Session is an epoch-driven closed-loop run of the distributed JVM: the
// primary API. Construction is chainable; configuration errors surface on
// the first call that uses them.
type Session = session.Session

// NewSession builds a session from the config. An invalid configuration is
// recorded and returned by the first Launch/Step/Run call.
var NewSession = session.New

// Profiler is the attached profiling subsystem Session.AttachProfiling
// returns.
type Profiler = core.Profiler

// Report gives access to a completed run's results (Session.Report).
type Report = session.Report

// Closed-loop vocabulary: policies observe epoch snapshots and return
// actions the session applies mid-run (see package internal/session).
type (
	// Policy is the pluggable observe→decide→act controller.
	Policy = session.Policy
	// Snapshot is the live profiling state at an epoch boundary.
	Snapshot = session.Snapshot
	// Action is one closed-loop decision (sealed vocabulary below).
	Action = session.Action
	// MigrateThread moves a thread at its next safe point.
	MigrateThread = session.MigrateThread
	// RehomeObject migrates an object's home node.
	RehomeObject = session.RehomeObject
	// SetSamplingRate retunes the uniform sampling rate cluster-wide.
	SetSamplingRate = session.SetSamplingRate
	// NopPolicy is the passive baseline policy.
	NopPolicy = session.NopPolicy
)

// NewRebalancePolicy returns the shipped closed-loop optimizer: TCM-driven
// placement and hot-object home rebalancing with sticky-set prefetch
// migration. The policy keeps buffers between boundaries, so build one per
// session.
var NewRebalancePolicy = session.NewRebalancePolicy

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
)

// Profile store functions: binary codec and file round trip.
var (
	EncodeProfile = profile.Encode
	SaveProfile   = profile.Save
	LoadProfile   = profile.Load
)

// NewWarmStartPolicy returns the profile-guided policy: it replays the
// stored hot-object homes early and drives the sampling rate from the
// live-vs-stored TCM divergence signal (RebalancePolicy inner optimizer,
// 0.10/0.35 divergence hysteresis, 1X floor rate).
var NewWarmStartPolicy = session.NewWarmStartPolicy

// --- balancing helpers ------------------------------------------------------

// PlanPlacement computes an improved thread placement from a TCM.
func PlanPlacement(m *tcm.Map, current Assignment, nodes int) (Assignment, []balancer.Move) {
	return balancer.Plan(m, current, balancer.DefaultConfig(nodes))
}

// PlanPlacementHomeAware additionally weighs each thread's affinity to the
// nodes homing its data (the paper's §VI "home effect"); homeAffinity
// comes from Report.HomeAffinity.
func PlanPlacementHomeAware(m *tcm.Map, current Assignment, nodes int, homeAffinity [][]float64, homeWeight float64) (Assignment, []balancer.Move) {
	cfg := balancer.DefaultConfig(nodes)
	cfg.HomeAffinity = homeAffinity
	cfg.HomeWeight = homeWeight
	return balancer.Plan(m, current, cfg)
}

// CrossVolume is the correlation volume split across nodes by a placement.
var CrossVolume = balancer.CrossVolume

// BlockedPlacement is the spawn-order default placement.
var BlockedPlacement = balancer.Blocked
