package session

import (
	"fmt"
	"slices"

	"jessica2/internal/balancer"
	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sampling"
	"jessica2/internal/sim"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
	"jessica2/internal/workload"
)

// Snapshot is the profiling state visible at an epoch boundary (or any
// pause point). It is plain data: policies decide from it alone, which
// keeps them deterministic and unit-testable without a kernel.
//
// The *Snapshot handed to Policy.Observe, and its Assignment, Hot (with
// every Hot entry's Threads), TCM, Footprints, RateTrace and Finished
// views, reuse per-session scratch buffers — they are valid for the
// duration of the Observe call and are overwritten at the next epoch
// boundary. The views are read-only: the TCM scratch in particular is
// re-synced incrementally (only cells that changed since the last boundary
// are rewritten), so a policy that writes into snap.TCM corrupts every
// subsequent boundary snapshot, not just its own. A policy that needs to
// keep or modify a view must copy it (e.g. TCM.Clone, slices.Clone).
// Snapshots from Session.Snapshot are freshly allocated and safe to retain
// or mutate.
type Snapshot struct {
	// Now is the virtual time of the pause; Epoch counts processed
	// boundaries; Done marks a completed run.
	Now   sim.Time
	Epoch int
	Done  bool
	// Nodes and Threads are the cluster and thread dimensions.
	Nodes, Threads int
	// Assignment is the current thread→node placement; Finished marks
	// threads whose bodies have returned.
	Assignment balancer.Assignment
	Finished   []bool
	// TCM is the incremental thread correlation map built from everything
	// the master has ingested so far (nil for passive policies).
	TCM *tcm.Map
	// Hot lists objects newly observed as shared since the previous epoch
	// boundary, in allocation order (nil for passive policies).
	Hot []HotObject
	// Footprints holds per-thread sticky-set footprints when footprinting
	// is attached.
	Footprints map[int]sticky.Footprint
	// RateTrace is the adaptive controller's decision log so far.
	RateTrace []core.RateChange
	// Kernel and Network are the protocol counters so far.
	Kernel  gos.KernelStats
	Network NetworkStats
	// Health is the failure detector's view of the cluster — per-node
	// liveness, last heartbeat, in-flight flush depth — plus the failure
	// counters (retries, evacuations, abandoned flushes). Nil unless the
	// kernel's failure layer is enabled (gos.Config.Failure), so
	// failure-unaware policies and golden runs are untouched. Boundary
	// snapshots alias session scratch like the other views.
	Health *gos.HealthSnapshot
	// Serve is the open-loop serving view — arrivals, completions,
	// in-flight depth, goodput, and LatencyP50/P95/P99 on the simulated
	// clock — when an open-loop workload (workload.ServeMix) is launched.
	// Nil for closed-loop workloads, so existing policies and golden runs
	// never see the field move. Boundary snapshots alias session scratch
	// like the other views.
	Serve *workload.ServeStats
	// Divergence compares the live incremental TCM against a warm-start
	// profile's stored map: the total-variation distance of the two
	// shape-normalized maps, in [0, 1] (0 = the live run shares exactly the
	// stored correlation structure, 1 = disjoint structure). An empty live
	// map reads 0 — no evidence of divergence yet — so warm runs are not
	// spooked before sampling accrues. −1 when no profile was loaded (or
	// for passive policies, which build no TCM); the zero value would read
	// as "perfect match".
	Divergence float64
}

// HotObject is one newly shared object in a snapshot.
type HotObject struct {
	Object heap.ObjectID
	// Home is the object's current home node; Bytes its payload size.
	Home  int
	Bytes int
	// Volume is the logged correlation weight (amortized size × gap).
	Volume float64
	// Threads are the accessor thread ids observed so far, ascending.
	Threads []int32
}

// Policy is a pluggable closed-loop controller: at every epoch boundary the
// session hands it a snapshot and applies the actions it returns before the
// run resumes.
type Policy interface {
	// Name identifies the policy in logs and reports.
	Name() string
	// NeedsProfile reports whether the session should trigger an
	// incremental cluster-wide OAL flush ahead of each boundary snapshot
	// and build the TCM/hot views. Passive policies return false and leave
	// the run byte-identical to an unsupervised one.
	NeedsProfile() bool
	// Observe inspects the boundary snapshot and returns actions to apply.
	// The snapshot and its views alias session scratch valid only during
	// the call; copy anything that must survive to the next epoch. The
	// policy may reuse the returned slice at its next call: the session
	// copies each action into its log before then, and a wrapper may
	// filter the slice in place.
	Observe(snap *Snapshot) []Action
}

// Action is one closed-loop decision the session can apply mid-run. The
// vocabulary is sealed: MigrateThread, RehomeObject and SetSamplingRate.
type Action interface {
	// apply executes the action; a non-empty note explains a no-op.
	apply(s *Session) string
	fmt.Stringer
}

// MigrateThread moves a thread to another node at its next safe point,
// optionally resolving and prefetching its sticky set with the context.
// Execution is deferred: the request is accepted immediately, the move
// happens when the thread next reaches a safe point (a later request for
// the same thread replaces a pending one; a thread that never accesses a
// shared object again never moves). Completed moves are recorded in the
// session's migration history.
type MigrateThread struct {
	Thread, To int
	// Prefetch ships the resolved sticky set with the thread (requires an
	// attached profiler; silently reduced to a bare migration otherwise).
	Prefetch bool
}

func (a MigrateThread) String() string {
	pf := ""
	if a.Prefetch {
		pf = "+prefetch"
	}
	return fmt.Sprintf("migrate T%d -> node%d%s", a.Thread, a.To, pf)
}

func (a MigrateThread) apply(s *Session) string {
	k := s.k
	if a.Thread < 0 || a.Thread >= k.NumThreads() {
		return fmt.Sprintf("no such thread %d", a.Thread)
	}
	if a.To < 0 || a.To >= k.NumNodes() {
		return fmt.Sprintf("no such node %d", a.To)
	}
	t := k.Thread(a.Thread)
	if t.Finished() {
		return "thread already finished"
	}
	if t.Node().ID() == a.To {
		return "already there"
	}
	eng := s.MigrationEngine()
	t.AtSafePoint(func(t *gos.Thread) {
		var res *sticky.Resolution
		if a.Prefetch && s.prof != nil {
			res = s.prof.Resolve(t.ID())
		}
		eng.MigrateSelf(t, a.To, res)
	})
	return ""
}

// RehomeObject migrates an object's home to another node (the paper's
// object home migration lever: accessors elsewhere keep faulting, the new
// home's threads access locally).
type RehomeObject struct {
	Object heap.ObjectID
	To     int
}

func (a RehomeObject) String() string {
	return fmt.Sprintf("rehome obj%d -> node%d", a.Object, a.To)
}

func (a RehomeObject) apply(s *Session) string {
	o := s.k.Reg.Object(a.Object)
	if o == nil {
		return fmt.Sprintf("no such object %d", a.Object)
	}
	if a.To < 0 || a.To >= s.k.NumNodes() {
		return fmt.Sprintf("no such node %d", a.To)
	}
	if o.Home == a.To {
		return "already homed there"
	}
	s.k.MigrateHome(o, a.To)
	return ""
}

// SetSamplingRate retunes the uniform object sampling rate cluster-wide,
// charging the resample change-notice pass.
type SetSamplingRate struct {
	Rate sampling.Rate
}

func (a SetSamplingRate) String() string {
	return fmt.Sprintf("set sampling rate %v", a.Rate)
}

func (a SetSamplingRate) apply(s *Session) string {
	if a.Rate < 1 {
		return fmt.Sprintf("bad rate %d", a.Rate)
	}
	plan := sampling.Uniform(s.k.Reg, a.Rate)
	s.k.ChargeResample(plan.Apply(s.k.Reg))
	return ""
}

// --- shipped policies --------------------------------------------------------

// NopPolicy is the passive baseline: it observes protocol counters only and
// never acts, so a session running it is byte-identical to a plain run.
type NopPolicy struct{}

// Name implements Policy.
func (NopPolicy) Name() string { return "nop" }

// NeedsProfile implements Policy; the nop policy is passive.
func (NopPolicy) NeedsProfile() bool { return false }

// Observe implements Policy.
func (NopPolicy) Observe(*Snapshot) []Action { return nil }

// RebalancePolicy is the shipped closed-loop optimizer: correlation-driven
// thread placement (greedy cross-volume reduction under a load-balance
// constraint, with sticky-set prefetch on each move) plus hot-object home
// rebalancing (newly shared objects are re-homed toward their accessors,
// spread so no node concentrates the hot working set's homes — the "home
// effect" turned into an online lever).
//
// It keeps its working buffers across calls, so a boundary allocates only
// the actions it returns; one instance serves one session.
type RebalancePolicy struct {
	planner   balancer.Planner
	hot       []HotObject // the snapshot's hot list, filtered and sorted
	load, aff []float64   // per-node hot load and one object's affinity
	acts      []Action    // returned by Observe, reused at the next call
}

// RebalancePolicy's tuning.
const (
	// rebalanceMaxMoves and rebalanceMinGainBytes tune the placement
	// planner (see balancer.Config).
	rebalanceMaxMoves     = 4
	rebalanceMinGainBytes = 4096
	// maxRehomesPerEpoch caps object home migrations per epoch.
	maxRehomesPerEpoch = 1024
	// hotMinAccessors is the sharing threshold for a hot object.
	hotMinAccessors = 2
)

// NewRebalancePolicy returns the shipped closed-loop optimizer. It holds
// buffers between boundaries, so build one per session.
func NewRebalancePolicy() *RebalancePolicy { return &RebalancePolicy{} }

// Name implements Policy.
func (p *RebalancePolicy) Name() string { return "rebalance" }

// NeedsProfile implements Policy.
func (p *RebalancePolicy) NeedsProfile() bool { return true }

// Observe implements Policy. The returned slice is reused at the next
// call.
func (p *RebalancePolicy) Observe(snap *Snapshot) []Action {
	p.acts = p.acts[:0]

	// 1. Correlation-driven placement: plan against the incremental TCM.
	next := snap.Assignment
	if snap.TCM != nil && snap.TCM.N() == snap.Threads && snap.TCM.Total() > 0 {
		cfg := balancer.DefaultConfig(snap.Nodes)
		cfg.MaxMoves = rebalanceMaxMoves
		cfg.MinGain = rebalanceMinGainBytes
		planned, moves := p.planner.Plan(snap.TCM, snap.Assignment, cfg)
		for _, mv := range moves {
			if mv.Thread < len(snap.Finished) && snap.Finished[mv.Thread] {
				continue
			}
			p.acts = append(p.acts, MigrateThread{Thread: mv.Thread, To: mv.To, Prefetch: true})
		}
		next = planned
	}

	// 2. Hot-object home rebalancing: assign each newly shared object to
	// the node maximizing accessor affinity minus already-assigned hot
	// load, so the hot set's homes spread instead of piling onto one node
	// (whose peers would all fault on every update).
	if len(snap.Hot) > 0 {
		p.rehomes(snap, next)
	}
	return p.acts
}

// byVolumeDesc orders hot objects by descending volume. Ties and NaN
// compare equal, so a stable sort keeps them in input order.
func byVolumeDesc(a, b HotObject) int {
	switch {
	case a.Volume > b.Volume:
		return -1
	case b.Volume > a.Volume:
		return 1
	}
	return 0
}

// rehomes appends to p.acts the affinity-and-load greedy home assignment
// for the snapshot's hot list under the planned thread placement.
func (p *RebalancePolicy) rehomes(snap *Snapshot, placement balancer.Assignment) {
	// Highest-volume objects choose their homes first.
	hot := p.hot[:0]
	for _, h := range snap.Hot {
		if len(h.Threads) >= hotMinAccessors {
			hot = append(hot, h)
		}
	}
	p.hot = hot
	slices.SortStableFunc(hot, byVolumeDesc)

	p.load = slices.Grow(p.load[:0], snap.Nodes)[:snap.Nodes]
	clear(p.load)
	p.aff = slices.Grow(p.aff[:0], snap.Nodes)[:snap.Nodes]
	load, aff := p.load, p.aff
	rehomed := 0
	for _, h := range hot {
		clear(aff)
		per := h.Volume / float64(len(h.Threads))
		for _, th := range h.Threads {
			if int(th) < len(placement) {
				if n := placement[th]; n >= 0 && n < snap.Nodes {
					aff[n] += per
				}
			}
		}
		best := 0
		bestScore := aff[0] - load[0]
		for n := 1; n < snap.Nodes; n++ {
			if score := aff[n] - load[n]; score > bestScore {
				best, bestScore = n, score
			}
		}
		load[best] += h.Volume
		if best != h.Home && rehomed < maxRehomesPerEpoch {
			p.acts = append(p.acts, RehomeObject{Object: h.Object, To: best})
			rehomed++
		}
	}
}
