// Package core assembles the paper's contribution on top of the DJVM
// substrate: the access profiler (adaptive object sampling driving
// correlation tracking), the stack profiler (timer-based adaptive stack
// sampling per node), the sticky-set profiler (footprinting plus lazy
// resolution), and the adaptive rate controller daemon on the master JVM.
//
// A Profiler is attached to a kernel after the workload has been launched
// (classes registered, threads spawned) and before the simulation runs.
package core

import (
	"sort"

	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sampling"
	"jessica2/internal/sim"
	"jessica2/internal/stack"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
)

// StackCosts charges the stack sampler's work to node CPUs.
type StackCosts struct {
	// Activation is the fixed cost of one sampler activation on a thread
	// (suspend, locate top frame).
	Activation sim.Time
	// WalkPerFrame is the per-frame cost of the top-down/bottom-up scan.
	WalkPerFrame sim.Time
	// RawPerSlot is the cheap raw snapshot copy (lazy mode first visits).
	RawPerSlot sim.Time
	// ExtractPerSlot is frame-content extraction: GET-METHOD-BY-PC,
	// layout decoding, GC pointer validation.
	ExtractPerSlot sim.Time
	// ComparePerSlot is one probing comparison.
	ComparePerSlot sim.Time
}

// DefaultStackCosts returns values calibrated against Table V's overheads.
func DefaultStackCosts() StackCosts {
	return StackCosts{
		Activation:     8 * sim.Microsecond,
		WalkPerFrame:   800 * sim.Nanosecond,
		RawPerSlot:     500 * sim.Nanosecond,
		ExtractPerSlot: 3 * sim.Microsecond,
		ComparePerSlot: 700 * sim.Nanosecond,
	}
}

// Cost converts sampler stats into charged CPU time.
func (c StackCosts) Cost(st stack.Stats) sim.Time {
	return c.Activation +
		sim.Time(st.FramesWalked)*c.WalkPerFrame +
		sim.Time(st.RawCaptured)*c.RawPerSlot +
		sim.Time(st.SlotsExtracted)*c.ExtractPerSlot +
		sim.Time(st.SlotsCompared)*c.ComparePerSlot
}

// StackConfig enables the stack profiler.
type StackConfig struct {
	// Gap is the sampling period (the paper evaluates 4 ms and 16 ms).
	Gap sim.Time
	// Lazy selects lazy extraction (vs immediate).
	Lazy bool
	// MinSurvived is the invariance threshold (see stack.Config).
	MinSurvived int
	// Costs is the CPU cost model.
	Costs StackCosts
}

// DefaultStackConfig is the paper's chosen operating point: 16 ms, lazy.
func DefaultStackConfig() StackConfig {
	return StackConfig{Gap: 16 * sim.Millisecond, Lazy: true, MinSurvived: 1, Costs: DefaultStackCosts()}
}

// AdaptiveConfig enables the master's adaptive rate controller.
type AdaptiveConfig struct {
	// Threshold is the relative-distance convergence bound.
	Threshold float64
	// Window is how often the controller compares successive maps.
	Window sim.Time
	// Start and Max bound the rate ladder.
	Start, Max sampling.Rate
	// UseEUC switches the distance metric to Euclidean (default ABS, the
	// paper's recommendation).
	UseEUC bool
}

// DefaultAdaptiveConfig starts coarse and converges at 95% relative
// accuracy.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{Threshold: 0.05, Window: 500 * sim.Millisecond, Start: 1, Max: sampling.MaxRate}
}

// FootprintConfig enables sticky-set footprinting on every thread.
type FootprintConfig struct {
	sticky.FootprinterConfig
	// EagerResolve runs sticky-set resolution at the close of every
	// interval (the paper's ad-hoc methodology for measuring resolution
	// overhead); normally resolution is lazy, at migration time only.
	EagerResolve bool
	// Resolver tunes eager/lazy resolution.
	Resolver sticky.ResolverConfig
}

// Config assembles a profiling setup.
type Config struct {
	// Rate is the initial uniform object sampling rate; 0 leaves class
	// gaps untouched. Tracking mode itself is kernel config (gos.Config).
	Rate sampling.Rate
	// Adaptive, when non-nil, runs the rate controller daemon.
	Adaptive *AdaptiveConfig
	// Stack, when non-nil, runs the per-node stack profiler daemons.
	Stack *StackConfig
	// Footprint, when non-nil, attaches a sticky-set footprinter to
	// every thread.
	Footprint *FootprintConfig
}

// RateChange records one adaptive controller decision for reporting.
type RateChange struct {
	At        sim.Time
	From, To  sampling.Rate
	Distance  float64
	Converged bool
	Resampled int
}

// Profiler is the attached profiling subsystem.
type Profiler struct {
	K   *gos.Kernel
	Cfg Config

	Samplers     map[int]*stack.Sampler
	Footprinters map[int]*sticky.Footprinter
	Controller   *sampling.Controller

	// StackCPU is total virtual CPU charged for stack sampling.
	StackCPU sim.Time
	// StackActivations counts sampler activations.
	StackActivations int64
	// ResolveCPU is total virtual CPU charged for eager resolutions.
	ResolveCPU sim.Time
	// Resolutions counts eager resolutions performed.
	Resolutions int64
	// RateTrace logs adaptive controller decisions.
	RateTrace []RateChange
	// WindowMaps keeps the per-window TCMs the controller compared.
	WindowMaps []*tcm.Map
}

// Attach wires the configured profiling subsystems into k. Call after the
// workload Launch (classes registered, threads spawned), before k.Run().
func Attach(k *gos.Kernel, cfg Config) *Profiler {
	p := &Profiler{
		K:            k,
		Cfg:          cfg,
		Samplers:     make(map[int]*stack.Sampler),
		Footprinters: make(map[int]*sticky.Footprinter),
	}
	if cfg.Rate != 0 {
		sampling.Uniform(k.Reg, cfg.Rate).Apply(k.Reg)
	}
	if cfg.Stack != nil {
		p.startStackProfiler(*cfg.Stack)
	}
	if cfg.Footprint != nil {
		for _, t := range k.Threads() {
			fp := sticky.NewFootprinter(t, cfg.Footprint.FootprinterConfig)
			p.Footprinters[t.ID()] = fp
			t.AddObserver(fp)
		}
		if cfg.Footprint.EagerResolve {
			// Registered after the footprinters, so each thread's
			// footprint is folded before its interval's resolution.
			k.AddObserver(&eagerResolver{p: p})
		}
	}
	if cfg.Adaptive != nil {
		p.startAdaptiveDaemon(*cfg.Adaptive)
	}
	return p
}

// startStackProfiler spawns one daemon per node; each period it samples the
// stacks of the threads currently on its node and charges the node CPU.
func (p *Profiler) startStackProfiler(cfg StackConfig) {
	if cfg.Gap <= 0 {
		cfg.Gap = 16 * sim.Millisecond
	}
	k := p.K
	for n := 0; n < k.NumNodes(); n++ {
		n := n
		k.Eng.Spawn("stackprof", func(proc *sim.Proc) {
			for {
				if k.AllThreadsFinished() {
					return
				}
				proc.Sleep(cfg.Gap)
				var cost sim.Time
				for _, t := range k.Threads() {
					if t.Finished() || t.Node().ID() != n {
						continue
					}
					sp := p.samplerFor(t.ID(), cfg)
					st := sp.SampleStack(t.Stack)
					cost += cfg.Costs.Cost(st)
					p.StackActivations++
				}
				if cost > 0 {
					proc.Use(k.Node(n).CPU(), cost)
					p.StackCPU += cost
				}
			}
		})
	}
}

func (p *Profiler) samplerFor(tid int, cfg StackConfig) *stack.Sampler {
	sp := p.Samplers[tid]
	if sp == nil {
		sp = stack.NewSampler(stack.Config{Lazy: cfg.Lazy, MinSurvived: cfg.MinSurvived})
		p.Samplers[tid] = sp
	}
	return sp
}

// Invariants returns the current stack-invariant references of a thread
// (empty until the stack profiler has compared samples).
func (p *Profiler) Invariants(tid int) []stack.InvariantRef {
	sp := p.Samplers[tid]
	if sp == nil {
		return nil
	}
	for _, t := range p.K.Threads() {
		if t.ID() == tid {
			return sp.Invariants(t.Stack)
		}
	}
	return nil
}

// Footprint returns the sticky-set footprint estimate of a thread.
func (p *Profiler) Footprint(tid int) sticky.Footprint {
	fp := p.Footprinters[tid]
	if fp == nil {
		return nil
	}
	return fp.Footprint()
}

// Resolve runs sticky-set resolution for a thread using the profiler's
// current invariants and footprint.
func (p *Profiler) Resolve(tid int) *sticky.Resolution {
	rc := sticky.DefaultResolverConfig()
	if p.Cfg.Footprint != nil && p.Cfg.Footprint.Resolver.Tolerance != 0 {
		rc = p.Cfg.Footprint.Resolver
	}
	return sticky.Resolve(p.Invariants(tid), p.Footprint(tid), rc)
}

// eagerResolver measures resolution overhead by resolving at every
// interval close — the paper's ad-hoc Table V methodology ("eagerly
// carrying out this operation at the end of each HLRC interval").
type eagerResolver struct {
	p *Profiler
}

var _ gos.AccessObserver = (*eagerResolver)(nil)

// OnAccess is a no-op; eager resolution hooks interval closes only.
func (e *eagerResolver) OnAccess(t *gos.Thread, o *heap.Object, write, first bool) {}

// OnIntervalClose resolves the thread's sticky set and charges the cost.
func (e *eagerResolver) OnIntervalClose(t *gos.Thread) {
	res := e.p.Resolve(t.ID())
	if res == nil {
		return
	}
	t.Charge(res.Cost)
	e.p.ResolveCPU += res.Cost
	e.p.Resolutions++
}

// startAdaptiveDaemon spawns the controller on the master: every window it
// builds the TCM from the window's OALs, compares against the previous
// window's map at the previous rate, and steps the rate ladder.
func (p *Profiler) startAdaptiveDaemon(cfg AdaptiveConfig) {
	if cfg.Window <= 0 {
		cfg.Window = 500 * sim.Millisecond
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.05
	}
	k := p.K
	p.Controller = sampling.NewController(cfg.Threshold, cfg.Start, cfg.Max)
	sampling.Uniform(k.Reg, p.Controller.Rate()).Apply(k.Reg)
	var prev *tcm.Map
	var lastEntries int64 = -1
	k.Eng.Spawn("adaptived", func(proc *sim.Proc) {
		for {
			if k.AllThreadsFinished() {
				return
			}
			proc.Sleep(cfg.Window)
			if ents := k.Master().IngestedEntries(); ents == lastEntries {
				continue // no new OALs since the last decision: wait
			} else {
				lastEntries = ents
			}
			// The daemon accumulates OALs ("if enough intervals are
			// gathered, the daemon will process the OALs"): successive
			// *cumulative* maps are compared, so the distance measures
			// how much the profile is still changing — from new data and
			// from the finer sampling rate together. Normalization keeps
			// the comparison about structure, not volume growth.
			cur, _ := k.Master().Build(len(k.Threads()))
			if cur.Total() == 0 {
				continue // no OALs yet: nothing to judge
			}
			p.WindowMaps = append(p.WindowMaps, cur)
			if p.Controller.Converged() {
				continue
			}
			curN := cur.Clone().Scale(1 / cur.Total())
			dist := 1.0
			if prev != nil {
				if cfg.UseEUC {
					dist = tcm.DistanceEUC(prev, curN)
				} else {
					dist = tcm.DistanceABS(prev, curN)
				}
			}
			from := p.Controller.Rate()
			next, converged := p.Controller.Observe(dist)
			change := RateChange{
				At: proc.Now(), From: from, To: next,
				Distance: dist, Converged: converged,
			}
			if next != from {
				plan := sampling.Uniform(k.Reg, next)
				change.Resampled = plan.Apply(k.Reg)
				k.ChargeResample(change.Resampled)
			}
			p.RateTrace = append(p.RateTrace, change)
			prev = curN
		}
	})
}

// LiveViews exports the profiler's incremental state for a mid-run
// snapshot: a copy of the adaptive controller's decision log so far and
// the current per-thread sticky-set footprint estimates. Reading the views
// charges no simulated CPU — observing a paused run must not change it.
func (p *Profiler) LiveViews() (trace []RateChange, footprints map[int]sticky.Footprint) {
	return p.LiveViewsInto(nil, nil)
}

// LiveViewsInto is LiveViews with caller-owned scratch: the trace is
// rebuilt in trace[:0] and the footprint maps (outer and per-thread) are
// cleared and refilled in place, so a session observing every epoch
// boundary allocates nothing at steady state. The returned views alias the
// scratch and are valid until the next call with the same buffers.
func (p *Profiler) LiveViewsInto(trace []RateChange, footprints map[int]sticky.Footprint) ([]RateChange, map[int]sticky.Footprint) {
	trace = append(trace[:0], p.RateTrace...)
	if len(p.Footprinters) == 0 {
		return trace, nil
	}
	if footprints == nil {
		footprints = make(map[int]sticky.Footprint, len(p.Footprinters))
	}
	// Drop entries for threads no longer profiled so reused scratch never
	// resurfaces a stale view (today Footprinters only grows, but the
	// contract must not depend on that).
	for tid := range footprints {
		if _, ok := p.Footprinters[tid]; !ok {
			delete(footprints, tid)
		}
	}
	for tid, fp := range p.Footprinters {
		footprints[tid] = fp.FootprintInto(footprints[tid])
	}
	return trace, footprints
}

// ClassRates reports the effective per-class rates currently installed,
// sorted by class name (diagnostics).
func (p *Profiler) ClassRates() map[string]sampling.Rate {
	out := make(map[string]sampling.Rate)
	names := p.K.Reg.ClassNames()
	sort.Strings(names)
	for _, n := range names {
		out[n] = sampling.EffectiveRate(p.K.Reg.Class(n))
	}
	return out
}
