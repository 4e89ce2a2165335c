package workload

import (
	"fmt"
	"slices"
	"sort"

	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sim"
	"jessica2/internal/stack"
	"jessica2/internal/xrand"
)

// ServeMix is the open-loop RPC/microservice request-serving workload:
// where every other workload in the package is closed-loop (a fixed thread
// pool iterating to completion, judged on wall-clock), ServeMix serves a
// request schedule that arrives whether or not the cluster keeps up — so
// queueing delay, goodput and tail latency become first-class outputs.
//
// The serving model is a 3-level fan-out call graph over shared heap
// objects: a frontend handler (level 1) updates the tenant's session
// object under a session lock stripe, then issues FanOut backend RPCs
// (level 2), each reading/writing entries of the tenant's cache partition
// through a store accessor (level 3) and occasionally the globally shared
// config object. Tenants are drawn zipf-skewed per request, and the hot
// window rotates every RotateEvery of virtual time, so the correlation
// churn the TCM sees is continuous — exactly the regime where one-shot
// placement goes stale.
//
// Requests are routed sticky per tenant to a primary/replica worker pair
// (primary by tenant hash, replica half the pool away), so every hot
// session and cache object has at least two accessor threads — giving the
// correlation tracker real cross-thread, and under blocked placement
// cross-node, affinity to discover. All shared objects are allocated by
// worker 0 during bootstrap (the usual "loader initializes the cache"
// shape), so initial homes are centralized on node 0 and placement quality
// is entirely up to the policy.
//
// The arrival schedule is injected (SetSchedule) rather than generated
// here: scenario.Arrivals owns schedule generation, the session layer (or
// the caller) hands the materialized times over, and the workload stays
// deterministic — same seed and schedule, byte-identical run.
type ServeMix struct {
	// Tenants is the number of distinct tenants; each owns one session
	// object and CachePerTenant cache entries of ValueSize bytes.
	Tenants, CachePerTenant, ValueSize int
	// FanOut is the number of backend RPCs per request (call-graph width).
	FanOut int
	// ZipfS is the tenant skew exponent (>1; near 1 = heavy skew).
	ZipfS float64
	// WriteFraction in [0,1] is the share of cache operations that write.
	WriteFraction float64
	// FrontCost and BackendCost are the per-stage compute charges.
	FrontCost, BackendCost sim.Time
	// RotateEvery shifts the hot tenant window by HotSpan tenants each
	// period (0 freezes the hot set).
	RotateEvery sim.Time
	HotSpan     int
	// Locks is the session lock stripe count.
	Locks int

	// Robust, when non-nil, routes serving through the request-lifecycle
	// robustness layer (deadlines, shedding, retries, hedging, circuit
	// breakers — see RobustConfig in robust.go) instead of the static
	// precomputed schedule. Nil keeps the classic path byte-identical.
	Robust *RobustConfig
	// SLO, when > 0 with Robust nil, enables within-SLO accounting
	// (ServeStats.CompletedInSLO / SLOGoodputPerSec) without changing any
	// serving behavior — reporting only, for comparing an unprotected run
	// against protected ones at the same target. Ignored when Robust is
	// set (Robust.Deadline is the SLO then).
	SLO sim.Time

	schedule []sim.Time       // injected arrival schedule, sorted ascending
	tenant   []int32          // per-request tenant draw, precomputed at Launch
	robust   *serveDispatcher // the last robust Launch's dispatcher, for tests

	sessions []*heap.Object
	caches   []*heap.Object
	config   *heap.Object

	state serveState
}

// NewServeMix returns the default request-serving instance (tenants sized
// for an 8-worker pool; pair it with a scenario arrival preset).
func NewServeMix() *ServeMix {
	return &ServeMix{
		Tenants: 256, CachePerTenant: 4, ValueSize: 256,
		FanOut:        3,
		ZipfS:         1.2,
		WriteFraction: 0.3,
		FrontCost:     2 * sim.Microsecond,
		BackendCost:   4 * sim.Microsecond,
		RotateEvery:   250 * sim.Millisecond,
		HotSpan:       64,
		Locks:         64,
	}
}

// Name implements Workload.
func (w *ServeMix) Name() string { return "ServeMix" }

// Characteristics implements Workload.
func (w *ServeMix) Characteristics() Characteristics {
	return Characteristics{
		Name:        "ServeMix",
		DataSet:     fmt.Sprintf("%d tenants x %d entries x %dB", w.Tenants, w.CachePerTenant+1, w.ValueSize),
		Rounds:      1,
		Granularity: "Fine",
		ObjectSize:  fmt.Sprintf("%d bytes", w.ValueSize),
	}
}

// SetSchedule installs the open-loop arrival schedule (sorted virtual
// times, normally from scenario.Arrivals.Schedule). Must precede Launch.
func (w *ServeMix) SetSchedule(s []sim.Time) { w.schedule = s }

// HasSchedule reports whether an arrival schedule was installed.
func (w *ServeMix) HasSchedule() bool { return w.schedule != nil }

// serveLockBase keeps ServeMix lock ids clear of other workloads' ranges.
const serveLockBase = 11000

// hotBase is the rotating offset added to zipf tenant draws at arrival
// time at: the hot set advances HotSpan tenants every RotateEvery.
func (w *ServeMix) hotBase(at sim.Time) int {
	if w.RotateEvery <= 0 {
		return 0
	}
	return int(at/w.RotateEvery) * w.HotSpan
}

// Launch implements Workload. It panics without a schedule: an open-loop
// workload with no arrivals is a spec error, caught at launch rather than
// hanging the run.
func (w *ServeMix) Launch(k *gos.Kernel, p Params) {
	if w.schedule == nil {
		panic("workload: ServeMix launched without an arrival schedule (SetSchedule or Scenario.Arrivals)")
	}
	if w.Locks <= 0 {
		w.Locks = 1
	}
	if w.CachePerTenant <= 0 {
		w.CachePerTenant = 1
	}
	reg := k.Reg
	setup := &serveSetup{
		mHandle: &stack.Method{Name: "ServeMix.handle"},
		mRPC:    &stack.Method{Name: "ServeMix.rpc"},
		mStore:  &stack.Method{Name: "ServeMix.store"},
	}
	setup.sessClass = reg.Class("ServeSession")
	if setup.sessClass == nil {
		// Ref 0 chains sessions for the sticky-set resolver; ref 1 points
		// at the tenant's first cache entry.
		setup.sessClass = reg.DefineClass("ServeSession", w.ValueSize, 2)
	}
	setup.cacheClass = reg.Class("ServeCache")
	if setup.cacheClass == nil {
		setup.cacheClass = reg.DefineClass("ServeCache", w.ValueSize, 1)
	}
	setup.confClass = reg.Class("ServeConfig")
	if setup.confClass == nil {
		setup.confClass = reg.DefineClass("ServeConfig", 64, 0)
	}
	w.sessions = make([]*heap.Object, w.Tenants)
	w.caches = make([]*heap.Object, w.Tenants*w.CachePerTenant)
	w.state.reset(len(w.schedule))
	if w.Robust != nil {
		w.state.slo = w.Robust.Deadline
	} else {
		w.state.slo = w.SLO
	}

	// Per-request tenant draws: zipf rank over the rotating hot window,
	// a pure function of (seed, schedule).
	zipf := xrand.NewZipf(xrand.New(p.Seed).Derive(771), w.ZipfS, w.Tenants)
	w.tenant = make([]int32, len(w.schedule))
	for i, at := range w.schedule {
		w.tenant[i] = int32((w.hotBase(at) + zipf.Rank()) % w.Tenants)
	}

	setup.placement = p.placement(k.NumNodes())
	setup.parties = barrierParties(p)

	if w.Robust != nil {
		w.launchRobust(k, p, setup)
		return
	}

	// Sticky tenant routing: primary worker by tenant hash, replica half
	// the pool away (cross-node under blocked placement), alternating by
	// request parity — every tenant's objects get two accessor threads.
	half := p.Threads / 2
	if half == 0 {
		half = 1
	}
	workerOf := func(i int) int {
		worker := int(w.tenant[i]) % p.Threads
		if i&1 == 1 {
			worker = (worker + half) % p.Threads
		}
		return worker
	}
	// Count each worker's requests first, so that every list is cut at its
	// exact size from one array and filled in arrival order.
	counts := make([]int, p.Threads)
	for i := range w.schedule {
		counts[workerOf(i)]++
	}
	all := make([]int32, len(w.schedule))
	byWorker := make([][]int32, p.Threads)
	for tid, n := range counts {
		byWorker[tid], all = all[:0:n], all[n:]
	}
	for i := range w.schedule {
		worker := workerOf(i)
		byWorker[worker] = append(byWorker[worker], int32(i))
	}

	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		reqs := byWorker[tid]
		rng := xrand.New(p.Seed).Derive(uint64(tid) + 6211)
		k.SpawnThread(setup.placement[tid], fmt.Sprintf("serve-%d", tid), func(t *gos.Thread) {
			if tid == 0 {
				w.bootstrap(t, setup)
			}
			t.Barrier(0, setup.parties)

			for _, i := range reqs {
				at := w.schedule[i]
				t.SleepUntil(at)
				w.serveOne(t, rng, int(w.tenant[i]), setup)
				w.state.record(t.Now() - at)
			}
		})
	}
}

// serveSetup carries the launch-time wiring shared by the static and
// robust serving paths: object classes, call-graph methods, thread
// placement and the bootstrap barrier width.
type serveSetup struct {
	sessClass, cacheClass, confClass *heap.Class
	mHandle, mRPC, mStore            *stack.Method
	placement                        []int
	parties                          int
}

// bootstrap is worker 0's loader phase: every session and cache entry is
// allocated here, so all homes start on its node — the centralized
// placement the policy exists to fix.
func (w *ServeMix) bootstrap(t *gos.Thread, s *serveSetup) {
	var prev *heap.Object
	for i := 0; i < w.Tenants; i++ {
		o := t.Alloc(s.sessClass)
		if prev != nil {
			prev.Refs[0] = o
		}
		prev = o
		w.sessions[i] = o
		t.Write(o)
		for c := 0; c < w.CachePerTenant; c++ {
			e := t.Alloc(s.cacheClass)
			if c == 0 {
				o.Refs[1] = e
			}
			w.caches[i*w.CachePerTenant+c] = e
			t.Write(e)
		}
	}
	w.config = t.Alloc(s.confClass)
	t.Write(w.config)
}

// serveOne executes one request's 3-level call graph on the calling worker
// thread: frontend handler under the tenant's session lock, FanOut backend
// RPCs against the tenant's cache partition, session write-back. Both
// serving paths run requests through this body, so the robust layer serves
// exactly the work the static path does.
func (w *ServeMix) serveOne(t *gos.Thread, rng *xrand.Rand, tenant int, s *serveSetup) {
	sess := w.sessions[tenant]

	f := t.Stack.Push(s.mHandle, 1)
	f.SetRef(0, sess)
	t.Acquire(serveLockBase + tenant%w.Locks)
	t.Read(sess)
	t.Compute(w.FrontCost)
	for b := 0; b < w.FanOut; b++ {
		fr := t.Stack.Push(s.mRPC, 1)
		idx := tenant*w.CachePerTenant + rng.Intn(w.CachePerTenant)
		entry := w.caches[idx]
		fr.SetRef(0, entry)
		st := t.Stack.Push(s.mStore, 1)
		st.SetRef(0, entry)
		if rng.Float64() < w.WriteFraction {
			t.Write(entry)
		} else {
			t.Read(entry)
		}
		if rng.Float64() < 0.05 {
			t.Read(w.config) // shared config refresh
		}
		t.Stack.Pop()
		t.Compute(w.BackendCost)
		t.Stack.Pop()
	}
	t.Write(sess) // session state update
	t.Release(serveLockBase + tenant%w.Locks)
	t.Stack.Pop()
}

// ValidateServing lets the session layer reject a bad serving config at
// Launch time instead of panicking in it: a tenant count below one, which
// every tenant draw divides by, or a bad robustness config.
func (w *ServeMix) ValidateServing() error {
	if w.Tenants < 1 {
		return fmt.Errorf("workload: ServeMix needs Tenants >= 1, got %d", w.Tenants)
	}
	if w.Robust == nil {
		return nil
	}
	return w.Robust.Validate()
}

// --- open-loop serving statistics -------------------------------------------

// ServeStats is the open-loop serving view surfaced in epoch snapshots:
// request progress, in-flight depth, goodput, and tail latency measured on
// the simulated clock (arrival to completion, so queueing delay counts).
//
// Percentile semantics under the robustness layer: requests that never
// complete — shed at admission, failed fast with no live replica, or
// censored by their deadline — enter the latency distribution at the
// deadline value (right-censoring at the SLO). P50/P95/P99 and LatencyMax
// therefore rank over Completed + Shed + FailedFast + DeadlineExceeded
// samples, with every non-completion counting as a deadline-priced miss;
// a protected run cannot make its tail look better by dropping requests.
// With the layer off nothing is censored and the percentiles rank over
// completions only, exactly as before.
type ServeStats struct {
	// Arrived counts requests whose scheduled arrival is <= now; Completed
	// counts requests served; InFlight is the backlog (queued + in
	// service) at now, excluding requests already shed/failed/expired.
	Arrived, Completed, InFlight int
	// GoodputPerSec is completed requests per simulated second so far.
	GoodputPerSec float64
	// Latency percentiles (nearest-rank) and maximum, on the simulated
	// clock, over completions plus censored non-completions (see above).
	LatencyP50, LatencyP95, LatencyP99, LatencyMax sim.Time

	// Robust reports whether the robustness layer was on; the fields below
	// are only populated (and only printed) when it is, except the SLO
	// pair which also fills under reporting-only ServeMix.SLO.
	Robust bool
	// CompletedInSLO counts completions within the deadline/SLO;
	// SLOGoodputPerSec is that count per simulated second (goodput that
	// actually met the target — the headline robustness metric).
	CompletedInSLO   int
	SLOGoodputPerSec float64
	// Shed requests were rejected at admission (capacity exceeded);
	// DeadlineExceeded were censored by their deadline; FailedFast had no
	// admissible worker (all breakers open) and no retries left.
	Shed, DeadlineExceeded, FailedFast int64
	// Retried and Hedged count extra dispatches; HedgeWins are requests
	// whose hedge finished first. Rerouted counts dispatches steered off
	// the sticky pair by an open breaker (including crash-time
	// re-dispatches of stranded queued work); BreakerOpens counts
	// closed/half-open -> open transitions. Wasted counts attempt
	// completions that arrived after their request was already decided.
	Retried, Hedged, HedgeWins, Rerouted, BreakerOpens, Wasted int64
}

func (s *ServeStats) String() string {
	if !s.Robust {
		return fmt.Sprintf("arrived %d done %d inflight %d goodput %.0f/s p50 %v p95 %v p99 %v max %v",
			s.Arrived, s.Completed, s.InFlight, s.GoodputPerSec,
			s.LatencyP50, s.LatencyP95, s.LatencyP99, s.LatencyMax)
	}
	return fmt.Sprintf("arrived %d done %d inflight %d goodput %.0f/s p50 %v p95 %v p99 %v max %v | slo-goodput %.0f/s in-slo %d shed %d expired %d failed %d retried %d hedged %d hedge-wins %d rerouted %d breaker-opens %d wasted %d",
		s.Arrived, s.Completed, s.InFlight, s.GoodputPerSec,
		s.LatencyP50, s.LatencyP95, s.LatencyP99, s.LatencyMax,
		s.SLOGoodputPerSec, s.CompletedInSLO,
		s.Shed, s.DeadlineExceeded, s.FailedFast,
		s.Retried, s.Hedged, s.HedgeWins, s.Rerouted, s.BreakerOpens, s.Wasted)
}

// serveState accumulates completions. The robust counters and the censor
// ledger stay zero on the static path, keeping the off-layer stats
// byte-identical.
type serveState struct {
	// latencies is the completion-latency ledger, sorted as it is read:
	// latencies[:sorted] is ascending and the rest is in completion order
	// until the next sortedLatencies. tail is that method's merge buffer.
	latencies []sim.Time
	sorted    int
	tail      []sim.Time
	maxLat    sim.Time

	slo       sim.Time // within-SLO accounting bound; 0 disables
	inSLO     int
	censored  int      // non-completions priced into the distribution
	censorLat sim.Time // the value they enter at (the deadline)

	shed, expired, failedFast                          int64
	retried, hedged, hedgeWins, rerouted, breakerOpens int64
	wasted                                             int64
}

func (st *serveState) reset(capacity int) {
	*st = serveState{latencies: make([]sim.Time, 0, capacity)}
}

func (st *serveState) record(lat sim.Time) {
	if lat < 0 {
		lat = 0
	}
	st.latencies = append(st.latencies, lat)
	if lat > st.maxLat {
		st.maxLat = lat
	}
	if st.slo > 0 && lat <= st.slo {
		st.inSLO++
	}
}

// sortedLatencies returns every recorded latency in ascending order. It
// sorts only what was recorded since the last call and merges that
// backwards into the sorted prefix, so a read after k new records costs
// O(k log n) comparisons and at most n element moves, with no copy of the
// ledger. Nothing is allocated once the merge buffer has grown to the
// largest batch seen. The result aliases the ledger and is valid until the
// next record.
func (st *serveState) sortedLatencies() []sim.Time {
	all := st.latencies
	if st.sorted == len(all) {
		return all
	}
	tail := append(st.tail[:0], all[st.sorted:]...)
	slices.Sort(tail)
	st.tail = tail
	// Place the tail from its largest value down. Each value lands just
	// above the prefix entries smaller than it, and the prefix entries
	// above those shift up as one block; no write passes an unread entry.
	end := st.sorted
	for j := len(tail) - 1; j >= 0; j-- {
		v := tail[j]
		p, _ := slices.BinarySearch(all[:end], v)
		copy(all[p+j+1:], all[p:end])
		all[p+j] = v
		end = p
	}
	st.sorted = len(all)
	return all
}

// censor prices a non-completion (shed, expired, failed-fast) into the
// latency distribution at the deadline.
func (st *serveState) censor(at sim.Time) {
	st.censored++
	st.censorLat = at
}

// percentile returns the nearest-rank q-th percentile of sorted.
func percentile(sorted []sim.Time, q float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// censoredPercentile is percentile over the conceptual distribution of
// len(sorted) completion samples plus `censored` samples pinned at
// censorLat. Censored samples sit at the top of the ranking: the robust
// layer's deadline event wins same-timestamp ties against serving
// completions (it is scheduled at arrival, so its sequence number is
// lower), which guarantees every recorded completion is strictly below
// the deadline. With censored == 0 this is exactly percentile().
func censoredPercentile(sorted []sim.Time, censored int, censorLat sim.Time, q float64) sim.Time {
	n := len(sorted) + censored
	if n == 0 {
		return 0
	}
	idx := int(q*float64(n)+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	if idx >= len(sorted) {
		return censorLat
	}
	return sorted[idx]
}

// ServeStatsInto fills dst (allocating when nil) with the serving view as
// of virtual time now. Percentiles read the sorted latency ledger in place,
// so a boundary snapshot with dst reused allocates nothing once the
// ledger's merge buffer has warmed up.
func (w *ServeMix) ServeStatsInto(dst *ServeStats, now sim.Time) *ServeStats {
	if dst == nil {
		dst = &ServeStats{}
	}
	st := &w.state
	arrived := sort.Search(len(w.schedule), func(i int) bool { return w.schedule[i] > now })
	done := len(st.latencies)
	*dst = ServeStats{
		Arrived:    arrived,
		Completed:  done,
		InFlight:   arrived - done - st.censored,
		LatencyMax: st.maxLat,
		Robust:     w.Robust != nil,
	}
	if dst.Robust {
		dst.Shed = st.shed
		dst.DeadlineExceeded = st.expired
		dst.FailedFast = st.failedFast
		dst.Retried = st.retried
		dst.Hedged = st.hedged
		dst.HedgeWins = st.hedgeWins
		dst.Rerouted = st.rerouted
		dst.BreakerOpens = st.breakerOpens
		dst.Wasted = st.wasted
	}
	if st.slo > 0 {
		dst.CompletedInSLO = st.inSLO
		if now > 0 {
			dst.SLOGoodputPerSec = float64(st.inSLO) / now.Seconds()
		}
	}
	if st.censored > 0 && st.censorLat > dst.LatencyMax {
		dst.LatencyMax = st.censorLat
	}
	if done+st.censored == 0 {
		return dst
	}
	if now > 0 && done > 0 {
		dst.GoodputPerSec = float64(done) / now.Seconds()
	}
	s := st.sortedLatencies()
	dst.LatencyP50 = censoredPercentile(s, st.censored, st.censorLat, 0.50)
	dst.LatencyP95 = censoredPercentile(s, st.censored, st.censorLat, 0.95)
	dst.LatencyP99 = censoredPercentile(s, st.censored, st.censorLat, 0.99)
	return dst
}

// OpenLoop is implemented by workloads driven by an external arrival
// schedule instead of a closed iteration loop. The session layer uses it
// to install scenario-generated schedules at launch and to surface serving
// statistics in epoch snapshots.
type OpenLoop interface {
	Workload
	SetSchedule([]sim.Time)
	HasSchedule() bool
	ServeStatsInto(dst *ServeStats, now sim.Time) *ServeStats
}

var _ OpenLoop = (*ServeMix)(nil)
