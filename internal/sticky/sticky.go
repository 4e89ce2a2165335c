// Package sticky implements sticky-set profiling: estimating the set of
// objects that will predictably cause remote object faults after a thread
// migrates. It combines two samplers exactly as the paper's §III does:
//
//  1. Footprinting — repeated adaptive object sampling within an HLRC
//     interval captures access-frequency statistics on sampled objects,
//     yielding the sticky-set *footprint*: per-class byte totals of the
//     objects hot enough to be re-fetched after migration.
//  2. Stack-invariant mining — the stack sampler (package stack) finds
//     references that persist on the thread's stack; these are the entry
//     points of the sticky set.
//  3. Resolution — invoked lazily at migration time, walks the object
//     graph from the invariants, guided by sampled "landmark" objects and
//     per-class footprint budgets, to choose the actual prefetch set.
package sticky

import (
	"math"
	"sort"

	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sim"
	"jessica2/internal/stack"
)

// Footprint is the per-class estimated sticky-set composition in bytes
// ("how many bytes of shared objects in each class would be sticky to the
// thread being profiled").
type Footprint map[string]int64

// Total sums all classes.
func (f Footprint) Total() int64 {
	var n int64
	for _, v := range f {
		n += v
	}
	return n
}

// Classes returns class names sorted for deterministic iteration.
func (f Footprint) Classes() []string {
	names := make([]string, 0, len(f))
	for n := range f {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// The footprinter's calibrated mechanism. Footprinting repeatedly re-arms
// the false-invalid trap on the sampled objects the thread has touched, so
// each re-arm sweep pays per sampled object, and each re-trapped access pays
// a service-routine visit.
const (
	// minAccesses is the number of distinct re-arm periods in which a
	// sampled object must be trapped to be considered sticky (objects
	// "constantly accessed throughout the whole interval"; a single touch
	// like object B in Fig. 4 does not qualify).
	minAccesses = 2
	// rearmPeriod is the interval between re-arm sweeps while tracking.
	rearmPeriod = 1 * sim.Millisecond
	// onPhase and offPhase are the timer-based duty cycle: the paper's
	// 100 ms timer.
	onPhase  = 100 * sim.Millisecond
	offPhase = 100 * sim.Millisecond
	// minGap is the lower bound on the object sampling gap during
	// footprinting (repeated tracking is costlier than once-per-interval
	// correlation logging, so the paper bounds the rate).
	minGap = 1
	// armCost is charged per object re-armed in a sweep.
	armCost = 80 * sim.Nanosecond
	// trapBase is the fixed cost of one trapped (armed) access: the fault
	// into the GOS service routine.
	trapBase = 150 * sim.Nanosecond
	// trapPerKB scales the trap with the object size: cancelling the
	// fake-invalid state revisits the object's consistency metadata, so
	// large arrays pay proportionally (this is why the paper finds that
	// lowering the rate to 4X "has no effect on SOR"). 1.5 ns per byte.
	trapPerKB = 1536 * sim.Nanosecond
	// ewma is the smoothing factor for per-class footprints across
	// intervals (1 would keep the last interval only).
	ewma = 0.5
)

// FootprinterConfig tunes sticky-set footprinting.
type FootprinterConfig struct {
	// Nonstop, when true, sweeps every re-arm period for the whole
	// execution; otherwise sweeps happen only during the on phase of every
	// 100 ms on / 100 ms off cycle (the paper's timer).
	Nonstop bool
}

// DefaultFootprinterConfig is the paper's timer setting: 100 ms on /
// 100 ms off phases with 1 ms re-arm sweeps while on.
func DefaultFootprinterConfig() FootprinterConfig {
	return FootprinterConfig{}
}

// Footprinter observes one thread's accesses and maintains its sticky-set
// footprint estimate. It implements gos.AccessObserver.
type Footprinter struct {
	nonstop bool
	thread  *gos.Thread

	// counts holds, per sampled object touched this interval, how many
	// re-arm periods trapped it (the access-frequency statistic). Entries
	// are stamped with the interval, so a stale stamp reads as absent and
	// interval close clears nothing. tracked lists the interval's objects.
	counts  heap.Table[objCount]
	tracked []heap.ObjectID
	// disarmed counts the objects trapped since the last sweep or
	// interval close: exactly the objects the next sweep re-arms.
	disarmed int

	nextSweep sim.Time
	// windowOn is the duty cycle's state until windowEnd: trackingOn
	// recomputes both only when the clock reaches windowEnd, since virtual
	// time never goes back.
	windowOn  bool
	windowEnd sim.Time

	footprint Footprint
	// Raw (unsmoothed) footprint of the last closed interval, cleared and
	// refilled at every close.
	lastInterval Footprint

	// TrackedAccesses counts trapped (charged) accesses.
	TrackedAccesses int64
	// Sweeps counts re-arm sweeps performed. The counts table stores it
	// as int32, so sweep stops below that limit.
	Sweeps    int64
	intervals int32
}

// objCount is one tracked object's statistic within an interval, 12 bytes
// and no pointer: interval close looks the object up by ID.
type objCount struct {
	// interval is the footprinter's interval count plus one while the
	// entry is live; the zero entry is never live.
	interval int32
	// sweep is the Sweeps count at the object's last trap: it stays
	// disarmed until the next sweep moves Sweeps past it.
	sweep int32
	// count is at most one more than the sweeps of the interval.
	count int32
}

// NewFootprinter returns a footprinter for t; register it with
// t.AddObserver to activate.
func NewFootprinter(t *gos.Thread, cfg FootprinterConfig) *Footprinter {
	return &Footprinter{
		nonstop:      cfg.Nonstop,
		thread:       t,
		footprint:    make(Footprint),
		lastInterval: make(Footprint),
	}
}

// trackingOn reports whether the duty cycle is on at now, moving the cached
// window first if now has left it.
func (fp *Footprinter) trackingOn(now sim.Time) bool {
	if now >= fp.windowEnd {
		fp.nextWindow(now)
	}
	return fp.windowOn
}

// nextWindow moves the cached window to the one holding now: the duty cycle
// is on while now modulo onPhase+offPhase is below onPhase, and on for good
// under Nonstop.
func (fp *Footprinter) nextWindow(now sim.Time) {
	if fp.nonstop {
		fp.windowOn, fp.windowEnd = true, math.MaxInt64
		return
	}
	const period = onPhase + offPhase
	start := now - now%period
	fp.windowOn = now-start < onPhase
	if fp.windowOn {
		fp.windowEnd = start + onPhase
	} else {
		fp.windowEnd = start + period
	}
}

// effectiveGap applies the minGap lower bound to a class gap.
func effectiveGap(o *heap.Object) int64 {
	return max(o.Class.Gap(), minGap)
}

// OnAccess implements gos.AccessObserver: repeated object sampling within
// the interval. The first touch of a sampled object traps; afterwards it
// traps once per re-arm sweep. Sweeps run inline on the profiled thread and
// pay armCost per object they re-arm.
func (fp *Footprinter) OnAccess(t *gos.Thread, o *heap.Object, write, first bool) {
	if t != fp.thread {
		return
	}
	now := t.Kernel().Eng.Now()
	if !fp.trackingOn(now) {
		return
	}
	if now >= fp.nextSweep {
		fp.sweep(t, now)
	}
	if !o.SampledAtGap(effectiveGap(o)) {
		return
	}
	oc := fp.counts.At(o.ID)
	if live := fp.intervals + 1; oc.interval != live {
		// First touch this interval: the object starts armed.
		*oc = objCount{interval: live}
		fp.tracked = append(fp.tracked, o.ID)
	} else if oc.sweep == int32(fp.Sweeps) {
		return // trapped since the last sweep: still disarmed
	}
	oc.sweep = int32(fp.Sweeps)
	oc.count++
	fp.disarmed++
	fp.TrackedAccesses++
	t.Charge(trapBase + sim.Time(o.Bytes())*trapPerKB/1024)
}

// sweep re-arms the false-invalid trap on every tracked object. Only the
// objects that trapped since the last sweep or interval close are disarmed,
// so it charges armCost for fp.disarmed of them: the count a walk of the
// tracked set would find, kept without the walk.
func (fp *Footprinter) sweep(t *gos.Thread, now sim.Time) {
	if fp.Sweeps == math.MaxInt32-1 {
		panic("sticky: footprinter sweep count exceeds the int32 trap stamp")
	}
	fp.Sweeps++
	if fp.disarmed > 0 {
		t.Charge(sim.Time(fp.disarmed) * armCost)
		fp.disarmed = 0
	}
	fp.nextSweep = now + rearmPeriod
}

// OnIntervalClose folds the interval's counts into the footprint estimate:
// objects accessed at least minAccesses times contribute their amortized
// sample size scaled up by the sampling gap.
func (fp *Footprinter) OnIntervalClose(t *gos.Thread) {
	if t != fp.thread {
		return
	}
	if fp.intervals == math.MaxInt32-1 {
		panic("sticky: footprinter interval count exceeds the int32 entry stamp")
	}
	fp.intervals++
	raw := fp.lastInterval
	clear(raw)
	reg := t.Kernel().Reg
	for _, id := range fp.tracked {
		if fp.counts.At(id).count < minAccesses {
			continue
		}
		o := reg.Object(id)
		gap := effectiveGap(o)
		raw[o.Class.Name] += int64(o.AmortizedBytesAtGap(gap)) * gap
	}
	// EWMA-smooth into the running estimate over the union of classes.
	// Each class's new value depends only on its own old value and raw
	// bytes, so the order the maps are visited in cannot change a result.
	const a = ewma
	for c, v := range raw {
		fp.footprint[c] = int64(a*float64(v) + (1-a)*float64(fp.footprint[c]))
	}
	for c, v := range fp.footprint {
		if _, ok := raw[c]; !ok {
			fp.footprint[c] = int64((1 - a) * float64(v))
		}
	}
	// The bumped interval count retires every entry; nothing is left
	// disarmed.
	fp.tracked = fp.tracked[:0]
	fp.disarmed = 0
}

// Footprint returns a copy of the current smoothed estimate.
func (fp *Footprinter) Footprint() Footprint {
	return fp.FootprintInto(nil)
}

// FootprintInto writes the current smoothed estimate into dst — cleared
// and reused when non-nil, freshly allocated otherwise — and returns it.
// Epoch-boundary snapshots call this every epoch; recycling the map keeps
// live views off the allocator's hot path.
func (fp *Footprinter) FootprintInto(dst Footprint) Footprint {
	if dst == nil {
		dst = make(Footprint, len(fp.footprint))
	} else {
		clear(dst)
	}
	for c, v := range fp.footprint {
		if v > 0 {
			dst[c] = v
		}
	}
	return dst
}

// --- resolution --------------------------------------------------------------

// ResolverConfig tunes sticky-set resolution.
type ResolverConfig struct {
	// Tolerance is the paper's t parameter (> 1): a traversal path is
	// abandoned after t×gap objects of a class without meeting a sampled
	// landmark.
	Tolerance float64
	// VisitCost is charged per object considered during resolution.
	VisitCost sim.Time
	// MaxObjects caps the traversal as a safety valve.
	MaxObjects int
}

// DefaultResolverConfig returns the paper-ish defaults. VisitCost covers
// the per-object work of resolution in the real runtime: reachability
// tracing through the GC interface, landmark checks and prefetch-set
// packing.
func DefaultResolverConfig() ResolverConfig {
	return ResolverConfig{Tolerance: 2, VisitCost: 3 * sim.Microsecond, MaxObjects: 1 << 20}
}

// Resolution is the outcome of one sticky-set resolution.
type Resolution struct {
	// Objects is the selected prefetch set in traversal order.
	Objects []*heap.Object
	// Bytes is the total payload of the set.
	Bytes int64
	// PerClass is the selected bytes per class.
	PerClass Footprint
	// Visited counts all objects considered (selected or not).
	Visited int
	// LandmarksMet counts sampled objects encountered.
	LandmarksMet int
	// Cost is the CPU time the resolution should be charged.
	Cost sim.Time
}

// Resolve runs sticky-set resolution: starting from the stack invariants
// (topmost first), it walks the object reference graph selecting objects of
// classes with remaining footprint budget, stopping a path when landmarks
// run dry (the t×gap rule) and stopping a class when the amount of
// *sampled* bytes reached hits the class's estimated footprint.
func Resolve(invariants []stack.InvariantRef, footprint Footprint, cfg ResolverConfig) *Resolution {
	if cfg.Tolerance <= 1 {
		cfg.Tolerance = 2
	}
	if cfg.MaxObjects <= 0 {
		cfg.MaxObjects = 1 << 20
	}
	res := &Resolution{PerClass: make(Footprint)}
	// Per-class budget in scaled sampled bytes: resolution selects objects
	// until the reachable sampled objects account for the footprint
	// ("prefetch each type of sticky objects until the per-class
	// estimated footprint is hit").
	budget := make(map[string]int64, len(footprint))
	for c, v := range footprint {
		budget[c] = v
	}
	sampledSeen := make(map[string]int64)
	visited := make(map[heap.ObjectID]struct{})
	// sinceLandmark counts per-class objects walked without a landmark on
	// the current path.
	classDone := func(name string) bool {
		b, ok := budget[name]
		return !ok || sampledSeen[name] >= b
	}

	var walk func(o *heap.Object, sinceLandmark map[string]int)
	walk = func(o *heap.Object, sinceLandmark map[string]int) {
		if o == nil || res.Visited >= cfg.MaxObjects {
			return
		}
		if _, dup := visited[o.ID]; dup {
			return
		}
		visited[o.ID] = struct{}{}
		res.Visited++

		name := o.Class.Name
		gap := o.Class.Gap()
		if o.Sampled() {
			res.LandmarksMet++
			sinceLandmark[name] = 0
			// Scaled landmark accounting toward the footprint budget.
			sampledSeen[name] += int64(o.AmortizedBytes()) * max64(gap, 1)
		} else {
			sinceLandmark[name]++
			// Landmark guidance: "we will stop current prefetching if we
			// have not seen any landmark for t×gap objects of that class".
			if gap > 1 && float64(sinceLandmark[name]) > cfg.Tolerance*float64(gap) {
				return
			}
		}

		if !classDoneBefore(name, sampledSeen, budget, o, gap) {
			res.Objects = append(res.Objects, o)
			res.Bytes += int64(o.Bytes())
			res.PerClass[name] += int64(o.Bytes())
		}

		// Follow reference fields in slot order.
		for _, ref := range o.Refs {
			if ref == nil {
				continue
			}
			if classDone(ref.Class.Name) && allDone(budget, sampledSeen) {
				return
			}
			walk(ref, sinceLandmark)
		}
	}

	for _, inv := range invariants {
		if allDone(budget, sampledSeen) {
			break
		}
		// Each stack-invariant starts a fresh path with its own landmark
		// drought counter ("if we cannot find enough objects by following
		// a stack-invariant reference, we can switch to the others").
		walk(inv.Obj, make(map[string]int))
	}
	res.Cost = sim.Time(res.Visited) * cfg.VisitCost
	return res
}

// classDoneBefore checks the class budget state *before* accounting o, so
// the object that crosses the budget line is still included.
func classDoneBefore(name string, sampledSeen map[string]int64, budget map[string]int64, o *heap.Object, gap int64) bool {
	b, ok := budget[name]
	if !ok {
		return true // class not in footprint: not sticky, skip selection
	}
	prior := sampledSeen[name]
	if o.Sampled() {
		prior -= int64(o.AmortizedBytes()) * max64(gap, 1)
	}
	return prior >= b
}

func allDone(budget map[string]int64, seen map[string]int64) bool {
	for c, b := range budget {
		if seen[c] < b {
			return false
		}
	}
	return true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
