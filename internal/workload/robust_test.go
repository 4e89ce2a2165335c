package workload

import (
	"slices"
	"strings"
	"testing"

	"jessica2/internal/gos"
	"jessica2/internal/sim"
)

// robustSchedule builds a uniform arrival schedule: n requests spaced gap
// apart starting at start.
func robustSchedule(n int, start, gap sim.Time) []sim.Time {
	s := make([]sim.Time, n)
	for i := range s {
		s[i] = start + sim.Time(i)*gap
	}
	return s
}

// runRobustServe launches a ServeMix with the given robustness config on a
// fresh kernel and returns its final stats line.
func runRobustServe(t *testing.T, rc *RobustConfig, fc *gos.FailureConfig, crash func(*gos.Kernel), sched []sim.Time) (*ServeStats, *ServeMix) {
	t.Helper()
	cfg := gos.DefaultConfig()
	cfg.Nodes = 4
	cfg.Tracking = gos.TrackingOff
	cfg.Failure = fc
	k := gos.NewKernel(cfg)
	w := NewServeMix()
	w.Robust = rc
	w.SetSchedule(sched)
	if crash != nil {
		crash(k)
	}
	w.Launch(k, Params{Threads: 8, Seed: 42})
	end := k.Run()
	return w.ServeStatsInto(nil, end), w
}

// robustFailureConfig is a fast failure detector: 1 ms heartbeats, 3 ms
// leases.
func robustFailureConfig() *gos.FailureConfig {
	return &gos.FailureConfig{
		HeartbeatInterval: 1 * sim.Millisecond,
		LeaseTimeout:      3 * sim.Millisecond,
		SweepInterval:     1 * sim.Millisecond,
		FlushTimeout:      2 * sim.Millisecond,
		FlushBackoff:      1 * sim.Millisecond,
		MaxFlushBackoff:   8 * sim.Millisecond,
		MaxFlushRetries:   4,
	}
}

// crashNode1 slows node 1 to a crawl at 4 ms for good: the detector
// declares it dead and its breaker opens.
func crashNode1(k *gos.Kernel) {
	cpu := k.Node(1).CPU()
	k.Eng.Schedule(4*sim.Millisecond, func() { cpu.SetSpeed(0.05) })
}

// TestCensoredPercentile pins how non-completions enter the percentile
// ranking: they sit above every completion at the deadline value, so P50/
// P95/P99 over done+censored flip to the deadline exactly when the rank
// crosses into the censored tail.
func TestCensoredPercentile(t *testing.T) {
	// 90 completions 1..90us, 10 censored at 1ms: ranks 91..100.
	lat := make([]sim.Time, 90)
	for i := range lat {
		lat[i] = sim.Time(i+1) * sim.Microsecond
	}
	const dl = sim.Millisecond
	cases := []struct {
		q    float64
		want sim.Time
	}{
		{0.50, 50 * sim.Microsecond}, // rank 50: still a completion
		{0.90, 90 * sim.Microsecond}, // rank 90: the last completion
		{0.95, dl},                   // rank 95: censored
		{0.99, dl},                   // rank 99: censored
	}
	for _, c := range cases {
		if got := censoredPercentile(lat, 10, dl, c.q); got != c.want {
			t.Errorf("censoredPercentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// No censoring == plain percentile, for every rank.
	for _, q := range []float64{0.5, 0.95, 0.99, 1.0} {
		if censoredPercentile(lat, 0, 0, q) != percentile(lat, q) {
			t.Fatalf("censoredPercentile(censored=0, q=%v) diverges from percentile", q)
		}
	}
	// All censored: every rank is the deadline.
	if got := censoredPercentile(nil, 5, dl, 0.5); got != dl {
		t.Errorf("all-censored P50 = %v, want %v", got, dl)
	}
	if got := censoredPercentile(nil, 0, dl, 0.5); got != 0 {
		t.Errorf("empty censoredPercentile = %v, want 0", got)
	}
}

// TestServeStatsCensoredView checks the snapshot math when requests were
// shed or expired: in-flight excludes them, percentiles and max price them
// at the deadline, and the SLO pair counts only true completions within
// the bound.
func TestServeStatsCensoredView(t *testing.T) {
	w := NewServeMix()
	w.Robust = &RobustConfig{Deadline: sim.Millisecond}
	w.SetSchedule(robustSchedule(10, 0, sim.Microsecond))
	w.state.reset(10)
	w.state.slo = sim.Millisecond
	for i := 0; i < 6; i++ {
		w.state.record(sim.Time(i+1) * 100 * sim.Microsecond)
	}
	w.state.shed = 1
	w.state.censor(sim.Millisecond) // the shed one
	w.state.expired = 2
	w.state.censor(sim.Millisecond)
	w.state.censor(sim.Millisecond)

	st := w.ServeStatsInto(nil, 10*sim.Millisecond)
	if st.Arrived != 10 || st.Completed != 6 {
		t.Fatalf("arrived %d done %d, want 10/6", st.Arrived, st.Completed)
	}
	if st.InFlight != 1 { // 10 arrived - 6 done - 3 censored
		t.Fatalf("inflight %d, want 1", st.InFlight)
	}
	if st.Shed != 1 || st.DeadlineExceeded != 2 {
		t.Fatalf("shed %d expired %d, want 1/2", st.Shed, st.DeadlineExceeded)
	}
	// 9 samples: 6 completions (100..600us) + 3 censored at 1ms.
	// P50 = rank 5 = 500us; P95 and P99 = rank 9 = censored.
	if st.LatencyP50 != 500*sim.Microsecond {
		t.Errorf("P50 = %v, want 500us", st.LatencyP50)
	}
	if st.LatencyP95 != sim.Millisecond || st.LatencyP99 != sim.Millisecond {
		t.Errorf("P95/P99 = %v/%v, want 1ms censored", st.LatencyP95, st.LatencyP99)
	}
	if st.LatencyMax != sim.Millisecond {
		t.Errorf("max = %v, want censored 1ms", st.LatencyMax)
	}
	if st.CompletedInSLO != 6 || st.SLOGoodputPerSec != 600 {
		t.Errorf("in-slo %d slo-goodput %v, want 6 @ 600/s", st.CompletedInSLO, st.SLOGoodputPerSec)
	}
	if !strings.Contains(st.String(), "slo-goodput") {
		t.Error("robust stats line missing robustness tail")
	}
}

// TestServeStatsOffPathUnchanged pins byte-invisibility of the layer when
// disabled: no robust tail in the stats line, zero counters, and the
// legacy in-flight arithmetic.
func TestServeStatsOffPathUnchanged(t *testing.T) {
	w := NewServeMix()
	w.SetSchedule(robustSchedule(4, 0, sim.Millisecond))
	w.state.reset(4)
	w.state.record(100 * sim.Microsecond)
	st := w.ServeStatsInto(nil, 10*sim.Millisecond)
	if st.Robust {
		t.Fatal("Robust flag set with layer off")
	}
	if st.InFlight != 3 {
		t.Fatalf("off-path inflight %d, want 3", st.InFlight)
	}
	line := st.String()
	if strings.Contains(line, "slo") || strings.Contains(line, "shed") {
		t.Fatalf("off-path stats line grew a robust tail: %q", line)
	}
	if st.Shed != 0 || st.DeadlineExceeded != 0 || st.Retried != 0 || st.Hedged != 0 {
		t.Fatal("off-path robust counters non-zero")
	}
}

// TestRobustConfigValidate rejects the nonsense configs session.Launch
// screens for.
func TestRobustConfigValidate(t *testing.T) {
	bad := []*RobustConfig{
		{},                            // no deadline
		{Deadline: -sim.Millisecond},  // negative deadline
		{Deadline: 1, Capacity: -1},   // negative capacity
		{Deadline: 1, MaxRetries: -1}, // negative retries
		{Deadline: 1, HedgeQuantile: 1.5},
	}
	for i, rc := range bad {
		if rc.Validate() == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if err := DefaultRobustConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (&RobustConfig{Deadline: sim.Millisecond, Capacity: 4}).Validate(); err != nil {
		t.Fatalf("shed-only config invalid: %v", err)
	}
}

// TestRobustServeHealthy runs the full stack on a healthy cluster: every
// request must reach a terminal state, and with no faults and a generous
// deadline they should all complete within it.
func TestRobustServeHealthy(t *testing.T) {
	rc := DefaultRobustConfig()
	// Arrivals start at 10ms (past worker 0's bootstrap) and well under the
	// pool's service rate, so nothing should time out, shed, or fail.
	st, _ := runRobustServe(t, rc, nil, nil, robustSchedule(400, 10*sim.Millisecond, 200*sim.Microsecond))
	if st.Completed+int(st.Shed+st.DeadlineExceeded+st.FailedFast) != 400 {
		t.Fatalf("requests leaked: %s", st)
	}
	if st.Completed != 400 {
		t.Fatalf("healthy cluster dropped requests: %s", st)
	}
	if st.CompletedInSLO != st.Completed {
		t.Fatalf("completion past deadline recorded: in-slo %d done %d", st.CompletedInSLO, st.Completed)
	}
	if st.InFlight != 0 {
		t.Fatalf("inflight %d after run end", st.InFlight)
	}
}

// TestRobustShedsAtCapacity drives simultaneous arrivals through a
// capacity-1 admission gate: all but the admissible few must be shed, and
// shed requests must surface in the percentiles as deadline-priced misses.
func TestRobustShedsAtCapacity(t *testing.T) {
	rc := &RobustConfig{Deadline: 5 * sim.Millisecond, Capacity: 1}
	sched := make([]sim.Time, 64)
	for i := range sched {
		sched[i] = sim.Millisecond // one instant burst
	}
	st, _ := runRobustServe(t, rc, nil, nil, sched)
	if st.Shed == 0 {
		t.Fatalf("no shedding at capacity 1: %s", st)
	}
	if st.Completed+int(st.Shed+st.DeadlineExceeded+st.FailedFast) != 64 {
		t.Fatalf("requests leaked: %s", st)
	}
	if st.LatencyP99 != rc.Deadline {
		t.Fatalf("P99 = %v, want deadline %v (shed tail censored)", st.LatencyP99, rc.Deadline)
	}
}

// TestRobustDeterminism pins byte-identity of two identical robust runs,
// including one with the failure layer and a mid-run crash.
func TestRobustDeterminism(t *testing.T) {
	fc := robustFailureConfig()
	crash := func(k *gos.Kernel) {
		cpu := k.Node(1).CPU()
		k.Eng.Schedule(4*sim.Millisecond, func() { cpu.SetSpeed(0.05) })
		k.Eng.Schedule(14*sim.Millisecond, func() { cpu.SetSpeed(1) })
	}
	run := func() string {
		st, _ := runRobustServe(t, DefaultRobustConfig(), fc, crash,
			robustSchedule(300, sim.Millisecond, 60*sim.Microsecond))
		return st.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("robust run not deterministic:\n%s\n%s", a, b)
	}
}

// TestRobustBreakerOnCrash crashes a node mid-run with breakers armed: the
// declare-dead push must open the node's breaker, stranded work must be
// rerouted or censored, and every request must still be terminal by its
// deadline — none may simply vanish from the ledger.
func TestRobustBreakerOnCrash(t *testing.T) {
	st, _ := runRobustServe(t, DefaultRobustConfig(), robustFailureConfig(), crashNode1,
		robustSchedule(300, sim.Millisecond, 60*sim.Microsecond))
	if st.BreakerOpens == 0 {
		t.Fatalf("crashed node never opened a breaker: %s", st)
	}
	total := st.Completed + int(st.Shed+st.DeadlineExceeded+st.FailedFast)
	if total != 300 {
		t.Fatalf("requests leaked (%d terminal of 300): %s", total, st)
	}
	if st.Completed == 0 {
		t.Fatalf("no requests served through the crash: %s", st)
	}
}

// TestRobustTimersAllocateNothing: a robust dispatch's arrival, deadline,
// attempt-timeout, hedge and retry timers are typed events over the
// dispatcher, a slab cell or an attempt, so arming them allocates nothing.
// A deadline or hedge cell returns to its free list when its timer fires;
// an attempt returns when its mailbox (or worker) and its timeout or retry
// timer have all released it. No worker serves here, so every request
// times out, retries, hedges and fails, and its attempts stay held by the
// mailboxes: the attempt chunks and mailbox growth that remain are
// amortized far below one allocation per request.
func TestRobustTimersAllocateNothing(t *testing.T) {
	const n, gap = 2048, sim.Millisecond
	cfg := gos.DefaultConfig()
	cfg.Nodes = 2
	k := gos.NewKernel(cfg)
	w := NewServeMix()
	w.Robust = DefaultRobustConfig()
	w.SetSchedule(robustSchedule(n, gap, gap))
	w.tenant = make([]int32, n)
	for i := range w.tenant {
		w.tenant[i] = int32(i % w.Tenants)
	}
	d := newServeDispatcher(w, k, 8)
	for i := range d.threads {
		d.threads[i] = k.SpawnThread(i%2, "idle", func(*gos.Thread) {})
	}
	d.start()
	now := sim.Time(0)
	step := func() {
		now += gap
		k.RunUntil(now)
	}
	for i := 0; i < n/2; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("robust timers allocate %v times per request, want 0", allocs)
	}
	k.Run()
	st := w.state
	if st.retried == 0 || st.hedged == 0 || st.failedFast+st.expired != n {
		t.Fatalf("retried %d, hedged %d, failed %d + expired %d of %d: the timers did not all run",
			st.retried, st.hedged, st.failedFast, st.expired, n)
	}
}

// penDispatcher returns a robust dispatcher over n requests of tenant 0
// whose lock stripe, 0, is wedged: a holder thread keeps the stripe's lock
// until 1 s and one started attempt is in flight, so every dispatch parks
// in the stripe's pen.
func penDispatcher(t *testing.T, n int) (*serveDispatcher, *gos.Kernel) {
	t.Helper()
	cfg := gos.DefaultConfig()
	cfg.Nodes = 2
	k := gos.NewKernel(cfg)
	w := NewServeMix()
	w.Robust = DefaultRobustConfig()
	w.SetSchedule(robustSchedule(n, 0, sim.Millisecond))
	w.tenant = make([]int32, n)
	d := newServeDispatcher(w, k, 2)
	for i := range d.threads {
		d.threads[i] = k.SpawnThread(i, "idle", func(*gos.Thread) {})
	}
	k.SpawnThread(0, "holder", func(th *gos.Thread) {
		th.Acquire(serveLockBase)
		th.SleepUntil(sim.Second)
		th.Release(serveLockBase)
	})
	k.RunUntil(sim.Millisecond)
	if k.LockAvailable(serveLockBase) {
		t.Fatal("the holder does not hold stripe 0's lock")
	}
	d.stripeBusy[0] = 1
	return d, k
}

// TestStripePenRefillAllocatesNothing: a pen filled by wedged dispatches,
// expired in place and drained when its stripe frees keeps its array, so
// filling it again allocates nothing.
func TestStripePenRefillAllocatesNothing(t *testing.T) {
	const n = 8
	d, k := penDispatcher(t, n)
	done := &serveAttempt{req: 0}
	cycle := func() {
		d.stripeBusy[0] = 1
		for i := range d.reqs {
			d.reqs[i].status = reqPending
			d.dispatch(i, attemptPrimary)
		}
		for i := range d.reqs {
			d.reqs[i].status = reqExpired
		}
		d.finishStripe(done)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("filling and draining the pen allocates %v times, want 0", allocs)
	}
	if pen := d.stripePen[0]; len(pen) != 0 || cap(pen) < n {
		t.Fatalf("drained pen has length %d and capacity %d, want 0 and at least %d", len(pen), cap(pen), n)
	}
	k.Run()
}

// TestStripePenDrainsFIFO: when the stripe frees, the pen re-dispatches
// its oldest pending request, past one that expired in place, and keeps
// the rest in order at the front of the same array.
func TestStripePenDrainsFIFO(t *testing.T) {
	d, k := penDispatcher(t, 4)
	for i := range d.reqs {
		d.dispatch(i, attemptPrimary)
	}
	pen := d.stripePen[0]
	d.reqs[0].status = reqExpired
	d.finishStripe(&serveAttempt{req: 0})
	got := d.stripePen[0]
	if !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("pen after the drain = %v, want [2 3]", got)
	}
	if &got[0] != &pen[0] {
		t.Fatal("the drained pen no longer starts at its array's front")
	}
	if d.reqs[1].live != 1 || d.reqs[2].live != 0 {
		t.Fatalf("live attempts: request 1 has %d, request 2 has %d; want 1 and 0", d.reqs[1].live, d.reqs[2].live)
	}
	k.Run()
}

// TestBackoffDelay pins the capped-exponential schedule, its zero-value
// no-delay contract, and overflow safety at absurd attempt counts.
func TestBackoffDelay(t *testing.T) {
	const ms = sim.Millisecond
	cases := []struct {
		name    string
		bo      backoff
		attempt int
		want    sim.Time
	}{
		{"zero value never delays", backoff{}, 0, 0},
		{"zero value never delays late", backoff{}, 9, 0},
		{"first attempt is base", backoff{base: 10 * ms, limit: sim.Second}, 0, 10 * ms},
		{"doubles", backoff{base: 10 * ms, limit: sim.Second}, 1, 20 * ms},
		{"doubles again", backoff{base: 10 * ms, limit: sim.Second}, 3, 80 * ms},
		{"hits the cap", backoff{base: 10 * ms, limit: 50 * ms}, 4, 50 * ms},
		{"stays at the cap", backoff{base: 10 * ms, limit: 50 * ms}, 40, 50 * ms},
		{"negative attempt clamps to base", backoff{base: 10 * ms, limit: sim.Second}, -3, 10 * ms},
		{"no cap grows freely", backoff{base: ms}, 10, 1024 * ms},
		{"huge attempt does not overflow", backoff{base: sim.Second}, 500, backoff{base: sim.Second}.delay(499)},
	}
	for _, tc := range cases {
		if got := tc.bo.delay(tc.attempt); got != tc.want {
			t.Errorf("%s: delay(%d) = %v, want %v", tc.name, tc.attempt, got, tc.want)
		}
	}
	// Overflow guard: the uncapped schedule must saturate positive, never
	// wrap negative (a negative delay would fire the retry at once).
	if d := (backoff{base: 3600 * sim.Second}).delay(200); d <= 0 {
		t.Fatalf("uncapped delay(200) = %v, want a positive saturated delay", d)
	}
}

// TestRobustRecyclesAttemptsAndCells: after robust runs that retry, hedge,
// reroute and open a breaker through a node crash, every attempt and every
// request-timer cell is back on its free list, so no holder kept a
// reference past the run; releasing a free attempt again panics.
func TestRobustRecyclesAttemptsAndCells(t *testing.T) {
	for _, n := range []int{300, 1200} {
		st, w := runRobustServe(t, DefaultRobustConfig(), robustFailureConfig(), crashNode1,
			robustSchedule(n, sim.Millisecond, 60*sim.Microsecond))
		if st.Retried == 0 || st.Hedged == 0 || st.Rerouted == 0 || st.BreakerOpens == 0 {
			t.Fatalf("%d requests: the run did not retry, hedge, reroute and open a breaker: %s", n, st)
		}
		d := w.robust
		if free, carved := len(d.attempts.free), d.attempts.carved; free != carved {
			t.Errorf("%d requests: %d of %d attempts on the free list", n, free, carved)
		}
		if free, carved := len(d.cells.free), d.cells.carved; free != carved {
			t.Errorf("%d requests: %d of %d timer cells on the free list", n, free, carved)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d requests: releasing a free attempt did not panic", n)
				}
			}()
			d.release(d.attempts.free[0])
		}()
	}
}

// TestRobustAttemptChunksFollowInFlight: a run of four times the requests
// at the same rate carves no more attempt chunks, since attempts are
// recycled as their requests resolve rather than kept for the whole run.
func TestRobustAttemptChunksFollowInFlight(t *testing.T) {
	chunks := func(n int) int {
		_, w := runRobustServe(t, DefaultRobustConfig(), robustFailureConfig(), crashNode1,
			robustSchedule(n, sim.Millisecond, 60*sim.Microsecond))
		return (w.robust.attempts.carved + slabChunk - 1) / slabChunk
	}
	if small, large := chunks(1200), chunks(4800); large > small {
		t.Fatalf("4,800 requests carve %d attempt chunks, 1,200 carve %d", large, small)
	}
}
