package workload

import (
	"fmt"
	"math"
	"slices"

	"jessica2/internal/gos"
	"jessica2/internal/sim"
	"jessica2/internal/xrand"
)

// This file is ServeMix's request-lifecycle robustness layer: per-request
// deadlines, admission control (load shedding), bounded retries with capped
// exponential backoff, quantile-delayed hedging, and per-node circuit
// breakers fed by the kernel's failure detector. The whole layer is gated
// on ServeMix.Robust: when nil, ServeMix runs its classic static path and
// is byte-identical to a build without this file (the robust-off golden
// gate in the root overload test pins this).
//
// With the layer on, request execution moves from precomputed per-worker
// schedules to a dynamic dispatcher: each arrival is an engine event that
// admits (or sheds) the request and enqueues an attempt into a worker
// mailbox; workers loop popping attempts and serving them. Retries, hedges
// and breaker reroutes are simply additional attempts for the same request
// — the first completion wins, every later one is counted as wasted work.
// All transitions run inside engine events or cooperative procs, so a
// protected run is exactly as deterministic as an unprotected one.
//
// Every admitted request reaches a terminal state by its deadline: it
// completes (latency recorded as measured), or its deadline event censors
// it (DeadlineExceeded), or it is shed/failed fast. Censored terminals
// enter the latency ledger at the deadline value — see ServeStats for the
// percentile semantics.

// RobustConfig enables and tunes ServeMix's request-lifecycle robustness
// layer. Deadline is mandatory; each sub-mechanism is armed by its own
// field (zero disables it), so shed-only or retry-only stacks are
// expressible. The layer's timings derive from Deadline: an attempt times
// out after Deadline/4; retries back off from Deadline/16, doubling up to
// Deadline/4; the hedge delay is floored at Deadline/8, and each request
// gets at most one hedge; a timeout-tripped breaker half-opens after a
// cooldown of one Deadline.
type RobustConfig struct {
	// Deadline is the per-request SLO on the simulated clock (arrival to
	// completion). A request not completed by arrival+Deadline is censored
	// as deadline-exceeded; shed and failed requests are censored at the
	// same value. Required (> 0).
	Deadline sim.Time
	// Capacity arms admission control: a request arriving while Capacity
	// admitted requests are still in flight is shed immediately (no work is
	// queued for it). 0 disables shedding.
	Capacity int
	// MaxRetries arms bounded retry: after an attempt times out, up to
	// MaxRetries replacement attempts are dispatched, paced by capped
	// exponential backoff. 0 disables retries.
	MaxRetries int
	// HedgeQuantile in (0, 1) arms hedging: when a request's primary
	// attempt is still unfinished after the observed completion-latency
	// quantile (re-estimated every 32 completions; Deadline/2 until the
	// first 32), a hedge attempt is dispatched to a different worker. 0
	// disables hedging.
	HedgeQuantile float64
	// BreakerThreshold arms per-node circuit breakers: a node is opened
	// after BreakerThreshold consecutive attempt timeouts, or immediately
	// when the failure detector declares it dead (the push form of
	// gos.HealthSnapshot). Open nodes are skipped by routing and their
	// queued attempts re-dispatched to live replicas; a revival beat (or
	// the cooldown) half-opens the breaker for a single probe request.
	// 0 disables breakers.
	BreakerThreshold int
}

// DefaultRobustConfig returns the full protection stack at serving-scale
// defaults: 20 ms deadline, 256-deep admission, 2 retries, P95 hedging and
// 3-strike breakers.
func DefaultRobustConfig() *RobustConfig {
	return &RobustConfig{
		Deadline:         20 * sim.Millisecond,
		Capacity:         256,
		MaxRetries:       2,
		HedgeQuantile:    0.95,
		BreakerThreshold: 3,
	}
}

// Validate rejects a nonsensical configuration (session.Launch calls this
// before the workload launches, so a bad config is an error, not a hang).
func (rc *RobustConfig) Validate() error {
	if rc.Deadline <= 0 {
		return fmt.Errorf("workload: robust serving needs a positive Deadline, got %v", rc.Deadline)
	}
	if rc.Capacity < 0 {
		return fmt.Errorf("workload: negative robust Capacity %d", rc.Capacity)
	}
	if rc.MaxRetries < 0 {
		return fmt.Errorf("workload: negative robust MaxRetries %d", rc.MaxRetries)
	}
	if rc.HedgeQuantile < 0 || rc.HedgeQuantile >= 1 {
		return fmt.Errorf("workload: robust HedgeQuantile %g outside [0, 1)", rc.HedgeQuantile)
	}
	if rc.BreakerThreshold < 0 {
		return fmt.Errorf("workload: negative robust BreakerThreshold %d", rc.BreakerThreshold)
	}
	return nil
}

// Attempt kinds, for accounting.
const (
	attemptPrimary = iota
	attemptRetry
	attemptHedge
	attemptReroute
)

// Request terminal states.
type reqStatus int8

const (
	reqPending reqStatus = iota
	reqDone
	reqShed
	reqExpired
	reqFailed
)

// serveReq is one request's lifecycle state. It holds no pointer, so the
// collector never scans reqs; its timers are reqCells.
type serveReq struct {
	retries    int32 // retry dispatches used
	live       int32 // attempts queued or executing, not cancelled/finished
	lastWorker int32 // worker of the most recent dispatch (hedges avoid it)
	status     reqStatus
	hedged     bool // the request's one hedge was dispatched
}

// reqCell is the event of one request timer (deadlineTimer, hedgeTimer).
type reqCell struct {
	d   *serveDispatcher
	req int
}

// serveAttempt is one dispatch of a request to a worker. Its timeout and
// retry timers are the attempt itself (timeoutTimer, retryTimer).
type serveAttempt struct {
	d         *serveDispatcher
	req       int
	worker    int // worker it was enqueued to
	node      int // node that worker sat on at dispatch (breaker accounting)
	kind      int8
	cancelled bool
	started   bool
	done      bool
	// probe marks the attempt holding its node's half-open probe slot.
	// Every resolution path must release the slot (releaseProbe or a
	// breaker transition), or the node wedges half-open forever.
	probe bool
	// refs counts the attempt's holders: its mailbox or the worker serving
	// it, and its timeout timer or the retry timer that timer armed. The
	// last release returns it to the free list (see release).
	refs int8
}

// Circuit breaker states.
type breakerState int8

const (
	brkClosed breakerState = iota
	brkOpen
	brkHalfOpen
)

type breaker struct {
	state    breakerState
	timeouts int  // consecutive attempt timeouts while closed
	probing  bool // half-open: one probe outstanding
}

// robustBox is one worker's mailbox: a FIFO of attempts plus the parked
// worker proc (at most one — each box has a single consumer). The queue is
// q[head:]; popping advances head, and the backing array is reused from
// the start whenever the queue empties.
type robustBox struct {
	q      []*serveAttempt
	head   int
	parked *sim.Proc
}

// slabChunk is the number of values in one chunk of a slab.
const slabChunk = 256

// slab hands out values carved from fixed-size chunks and takes released
// ones back on a plain-slice free list. A full chunk is replaced, never
// grown, so every pointer it handed out stays valid; a value may go back
// only once nothing, a queued event included, can still reach it.
type slab[T any] struct {
	chunk  []T
	free   []*T
	carved int // values carved from chunks so far
}

// get returns a released value as it was left, or a zeroed new one.
func (s *slab[T]) get() *T {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	if len(s.chunk) == cap(s.chunk) {
		s.chunk = make([]T, 0, slabChunk)
		// The free list never holds more than was carved.
		s.free = slices.Grow(s.free, s.carved+slabChunk)
	}
	s.chunk = s.chunk[:len(s.chunk)+1]
	s.carved++
	return &s.chunk[len(s.chunk)-1]
}

// put returns p to the free list.
func (s *slab[T]) put(p *T) { s.free = append(s.free, p) }

// backoff is a capped exponential retry delay: the n-th retry waits
// min(base·2ⁿ, limit). A base <= 0 means no delay at all (every retry is
// immediate), and a limit <= 0 leaves the doubling uncapped.
type backoff struct {
	base, limit sim.Time
}

// delay returns the pause before retry number attempt (0 = first retry).
func (b backoff) delay(attempt int) sim.Time {
	d := b.base
	if d <= 0 {
		return 0
	}
	if attempt < 0 {
		attempt = 0 // clamp: a confused caller gets the base delay, not a hot loop
	}
	for ; attempt > 0; attempt-- {
		if b.limit > 0 && d >= b.limit {
			return b.limit
		}
		if d > math.MaxInt64/2 {
			return math.MaxInt64
		}
		d *= 2
	}
	if b.limit > 0 && d > b.limit {
		d = b.limit
	}
	return d
}

// serveDispatcher owns the robust serving run: arrival admission, routing,
// timeouts, hedges, breakers and termination. All methods run in engine
// event context or inside a worker proc — the simulation is cooperative,
// so no locking, and every transition is deterministic.
type serveDispatcher struct {
	w   *ServeMix
	k   *gos.Kernel
	cfg RobustConfig

	// Timings derived from cfg.Deadline (see RobustConfig).
	attemptTimeout sim.Time
	retryBackoff   backoff
	hedgeMin       sim.Time

	threads []*gos.Thread
	boxes   []robustBox
	reqs    []serveReq
	brk     []breaker
	half    int // replica offset in the sticky pair

	// attempts and cells hold state in proportion to the work in flight:
	// an attempt is recycled when its last holder releases it, a request
	// timer's cell when it fires.
	attempts slab[serveAttempt]
	cells    slab[reqCell]

	inFlight int // admitted, not yet terminal
	terminal int
	closed   bool

	// nextArrival is the request whose arrival event is queued; the
	// dispatcher itself is that event (arrivalTimer).
	nextArrival int

	hedgeDelay  sim.Time
	sinceHedged int // completions since the last quantile re-estimate

	// pickedProbe is set by admit when the pick consumed a half-open probe
	// slot, and transferred onto the attempt by the following dispatch.
	pickedProbe bool

	// Stripe fencing. Requests sharing a session lock stripe serialize on
	// that lock inside the workers, so a second in-flight attempt for a
	// busy stripe cannot make progress — it can only wedge another worker
	// behind the same lock. That matters enormously under failures: a
	// request stalled mid-service on a crashed node holds its stripe lock
	// until the node restarts, and without fencing every retry, hedge, and
	// fresh arrival for that stripe consumes (and blocks) a healthy worker
	// until the whole pool is stuck. The dispatcher therefore keeps the
	// stripe's overflow in its own pen: stripeBusy counts started
	// unfinished attempts per stripe, and while it is non-zero new
	// dispatches for the stripe park in stripePen, where a doomed request
	// expires at its deadline without costing a worker. When the busy
	// attempt finishes, the pen drains FIFO.
	stripeBusy []int
	stripePen  [][]int
}

func newServeDispatcher(w *ServeMix, k *gos.Kernel, threads int) *serveDispatcher {
	cfg := *w.Robust
	half := threads / 2
	if half == 0 {
		half = 1
	}
	d := &serveDispatcher{
		w: w, k: k, cfg: cfg,
		attemptTimeout: cfg.Deadline / 4,
		retryBackoff: backoff{
			base:  cfg.Deadline / 16,
			limit: cfg.Deadline / 4,
		},
		hedgeMin:   cfg.Deadline / 8,
		threads:    make([]*gos.Thread, threads),
		boxes:      make([]robustBox, threads),
		reqs:       make([]serveReq, len(w.schedule)),
		brk:        make([]breaker, k.NumNodes()),
		half:       half,
		hedgeDelay: cfg.Deadline / 2,
		stripeBusy: make([]int, w.Locks),
		stripePen:  make([][]int, w.Locks),
	}
	if cfg.BreakerThreshold > 0 && k.FailureEnabled() {
		// The push form of the health snapshot: breakers open the instant
		// the detector declares death, and the dead node's queued attempts
		// are re-dispatched to live replicas right there — no poll lag.
		k.AddHealthListener(func(node int, alive bool) {
			if alive {
				d.onRevive(node)
			} else {
				d.onDeath(node)
			}
		})
	}
	return d
}

// start chains the arrival events. Each arrival schedules the next, so the
// event queue holds one pending arrival at a time regardless of schedule
// length.
func (d *serveDispatcher) start() {
	d.scheduleArrival(0)
}

func (d *serveDispatcher) scheduleArrival(i int) {
	if i >= len(d.w.schedule) {
		return
	}
	d.nextArrival = i
	d.k.Eng.ScheduleEvent(d.w.schedule[i], (*arrivalTimer)(d))
}

// The dispatcher's timers are typed events over the dispatcher, an attempt
// or a request's cell, so arming one allocates nothing once the slabs have
// warmed. The engine has no cancel: a queued event keeps its pointer until
// it fires, so nothing it points at is recycled before then. A request
// arms one deadline timer and at most one hedge timer, and each returns
// its cell when it fires; an attempt's timers hold references on it.
type (
	arrivalTimer  serveDispatcher
	deadlineTimer reqCell
	hedgeTimer    reqCell
	timeoutTimer  serveAttempt
	retryTimer    serveAttempt
)

func (e *arrivalTimer) Fire() {
	d := (*serveDispatcher)(e)
	i := d.nextArrival
	d.scheduleArrival(i + 1)
	d.arrive(i)
}

func (e *deadlineTimer) Fire() { d, i := (*reqCell)(e).take(); d.expire(i) }

func (e *hedgeTimer) Fire() { d, i := (*reqCell)(e).take(); d.hedge(i) }

// cell returns a request timer's event for request i.
func (d *serveDispatcher) cell(i int) *reqCell {
	c := d.cells.get()
	*c = reqCell{d: d, req: i}
	return c
}

// take returns a fired cell to its free list, and what it pointed at.
func (c *reqCell) take() (*serveDispatcher, int) {
	d, i := c.d, c.req
	d.cells.put(c)
	return d, i
}

func (e *timeoutTimer) Fire() { e.d.timeout((*serveAttempt)(e)) }

// Fire dispatches the retry and drops the reference timeout handed over.
func (e *retryTimer) Fire() {
	a := (*serveAttempt)(e)
	if a.d.reqs[a.req].status == reqPending {
		a.d.dispatch(a.req, attemptRetry)
	}
	a.d.release(a)
}

// arrive admits or sheds request i at its scheduled arrival time.
func (d *serveDispatcher) arrive(i int) {
	if d.cfg.Capacity > 0 && d.inFlight >= d.cfg.Capacity {
		d.w.state.shed++
		d.finishReq(i, reqShed)
		return
	}
	d.inFlight++
	d.k.Eng.ScheduleEvent(d.w.schedule[i]+d.cfg.Deadline, (*deadlineTimer)(d.cell(i)))
	d.dispatch(i, attemptPrimary)
}

// stripeOf is request i's session lock stripe.
func (d *serveDispatcher) stripeOf(i int) int {
	return int(d.w.tenant[i]) % d.w.Locks
}

// dispatch routes one attempt for request i; a request no live breaker
// admits fails fast. A request whose lock stripe already has a started
// attempt in flight parks in the stripe pen instead (see stripe fencing
// above) — it re-dispatches when the stripe frees, or expires in place.
func (d *serveDispatcher) dispatch(i int, kind int8) {
	r := &d.reqs[i]
	if r.status != reqPending {
		return
	}
	if s := d.stripeOf(i); d.stripeWedged(s) {
		d.stripePen[s] = append(d.stripePen[s], i)
		return
	}
	avoid := -1
	if kind == attemptHedge || kind == attemptRetry {
		avoid = int(r.lastWorker)
	}
	worker := d.pickWorker(i, avoid)
	if worker < 0 {
		d.failFast(i)
		return
	}
	a := d.attempts.get()
	*a = serveAttempt{d: d, req: i, worker: worker, node: d.threads[worker].Node().ID(), kind: kind, probe: d.pickedProbe, refs: 1}
	d.pickedProbe = false
	r.live++
	r.lastWorker = int32(worker)
	d.enqueue(worker, a)
	if d.cfg.MaxRetries > 0 || d.cfg.BreakerThreshold > 0 {
		a.refs++
		d.k.Eng.AfterEvent(d.attemptTimeout, (*timeoutTimer)(a))
	}
	if kind == attemptPrimary && d.cfg.HedgeQuantile > 0 {
		d.k.Eng.AfterEvent(d.currentHedgeDelay(), (*hedgeTimer)(d.cell(i)))
	}
}

// release drops one holder's reference to a; the last one returns a to
// the free list. A release with no reference held is a counting bug that
// would hand one attempt to two live dispatches, so it panics.
func (d *serveDispatcher) release(a *serveAttempt) {
	if a.refs <= 0 {
		panic("workload: serve attempt released with no reference held")
	}
	a.refs--
	if a.refs == 0 {
		d.attempts.put(a)
	}
}

// pickWorker returns the first admissible worker for request i: the sticky
// primary/replica pair first (order alternating by request parity, exactly
// the static path's routing), then a deterministic scan of the rest of the
// pool. Picking a half-open node consumes its probe slot. -1 means no
// admissible worker.
func (d *serveDispatcher) pickWorker(i, avoid int) int {
	d.pickedProbe = false
	threads := len(d.boxes)
	primary := int(d.w.tenant[i]) % threads
	replica := (primary + d.half) % threads
	if i&1 == 1 {
		primary, replica = replica, primary
	}
	try := func(w int) bool {
		if w == avoid && threads > 1 {
			return false
		}
		return d.admit(d.threads[w].Node().ID())
	}
	if try(primary) {
		return primary
	}
	if replica != primary && try(replica) {
		return replica
	}
	for off := 1; off < threads; off++ {
		w := (primary + off) % threads
		if w == replica {
			continue
		}
		if try(w) {
			d.w.state.rerouted++
			return w
		}
	}
	// Last resort: accept the avoided worker rather than failing a request
	// that still has an admissible home.
	if avoid >= 0 && d.admit(d.threads[avoid].Node().ID()) {
		return avoid
	}
	return -1
}

// admit consults (and for half-open nodes, consumes) the node's breaker.
func (d *serveDispatcher) admit(node int) bool {
	if d.cfg.BreakerThreshold <= 0 {
		return true
	}
	b := &d.brk[node]
	switch b.state {
	case brkOpen:
		return false
	case brkHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		d.pickedProbe = true
	}
	return true
}

// releaseProbe frees an attempt's half-open probe slot without judging the
// node, so a later pick can probe again. Called on every resolution path
// that is not a success (noteSuccess) or a timeout with the request still
// pending (noteTimeout): cancelled attempts, drains, and attempts whose
// request was decided before they ran.
func (d *serveDispatcher) releaseProbe(a *serveAttempt) {
	if !a.probe {
		return
	}
	a.probe = false
	b := &d.brk[a.node]
	if b.state == brkHalfOpen {
		b.probing = false
	}
}

// enqueue appends an attempt to a worker's mailbox and wakes it if parked.
func (d *serveDispatcher) enqueue(worker int, a *serveAttempt) {
	box := &d.boxes[worker]
	if box.head > 0 && len(box.q) == cap(box.q) {
		// Full, with popped slots at the front: slide the queue down
		// instead of letting append grow the array.
		n := copy(box.q, box.q[box.head:])
		clear(box.q[n:])
		box.q, box.head = box.q[:n], 0
	}
	box.q = append(box.q, a)
	if p := box.parked; p != nil {
		box.parked = nil
		p.Wake()
	}
}

// next pops the worker's oldest attempt, parking until one arrives; nil
// means the run is over and the box drained.
func (d *serveDispatcher) next(tid int, t *gos.Thread) *serveAttempt {
	box := &d.boxes[tid]
	for {
		if box.head < len(box.q) {
			a := box.q[box.head]
			box.q[box.head] = nil
			box.head++
			if box.head == len(box.q) {
				box.q, box.head = box.q[:0], 0
			}
			return a
		}
		if d.closed {
			return nil
		}
		box.parked = t.Proc()
		t.Proc().Block("serve-mailbox")
	}
}

// timeout handles an attempt's timer: breaker accounting, then a retry (or
// a fast failure when the request has nothing left running and no retries
// remaining).
func (d *serveDispatcher) timeout(a *serveAttempt) {
	r := &d.reqs[a.req]
	if a.done || a.cancelled || r.status != reqPending {
		// Attempt already resolved, or its request was decided without it
		// — don't judge the node, but do free a held probe slot.
		d.releaseProbe(a)
		d.release(a)
		return
	}
	if a.started {
		// The worker has been executing this attempt past the timeout —
		// that is evidence against its node, so charge the breaker. An
		// unstarted attempt only proves its worker's queue is long (often
		// because a *different* node stalled a shared stripe); charging it
		// would open breakers on healthy nodes and cascade into a fail-fast
		// storm, so queueing timeouts just retry elsewhere.
		d.noteTimeout(a.node)
		a.probe = false // a timed-out probe was resolved by noteTimeout (reopen)
	} else {
		d.releaseProbe(a)
		a.cancelled = true
		r.live--
	}
	if d.cfg.MaxRetries > 0 && int(r.retries) < d.cfg.MaxRetries {
		r.retries++
		d.w.state.retried++
		attempt := int(r.retries) - 1
		delay := d.retryBackoff.delay(attempt)
		// The timeout's reference passes to the retry timer.
		d.k.Eng.AfterEvent(delay, (*retryTimer)(a))
		return
	}
	if r.live == 0 {
		// No attempt running, none coming: fail now instead of idling to
		// the deadline.
		d.failFast(a.req)
	}
	d.release(a)
}

// hedge dispatches a backup attempt when the primary is still unfinished
// after the hedge delay.
func (d *serveDispatcher) hedge(i int) {
	r := &d.reqs[i]
	if r.status != reqPending || r.hedged || r.live == 0 {
		return
	}
	if d.stripeWedged(d.stripeOf(i)) {
		// An attempt for this stripe holds the lock — the hedge would only
		// serialize behind the same critical section. Hedging here is
		// queue-jumping, not duplicate-service.
		return
	}
	r.hedged = true
	d.w.state.hedged++
	d.dispatch(i, attemptHedge)
}

// expire censors a request still pending at its deadline.
func (d *serveDispatcher) expire(i int) {
	if d.reqs[i].status != reqPending {
		return
	}
	d.w.state.expired++
	d.inFlight--
	d.finishReq(i, reqExpired)
}

// failFast censors a request with no admissible or surviving attempt path.
func (d *serveDispatcher) failFast(i int) {
	if d.reqs[i].status != reqPending {
		return
	}
	d.w.state.failedFast++
	d.inFlight--
	d.finishReq(i, reqFailed)
}

// complete records a finished attempt from its worker proc. The first
// completion wins the request; anything later (a slower hedge or retry, or
// work past the deadline) is wasted work.
func (d *serveDispatcher) complete(a *serveAttempt, now sim.Time) {
	a.done = true
	r := &d.reqs[a.req]
	r.live--
	// Free the probe slot first (the worker may have been evacuated off
	// the probed node mid-service), then credit the success to wherever
	// the worker lives now — closing that node's breaker if half-open.
	d.releaseProbe(a)
	d.noteSuccess(d.threads[a.worker].Node().ID())
	d.finishStripe(a)
	if r.status != reqPending {
		d.w.state.wasted++
		return
	}
	d.w.state.record(now - d.w.schedule[a.req])
	if a.kind == attemptHedge {
		d.w.state.hedgeWins++
	}
	d.inFlight--
	d.finishReq(a.req, reqDone)
	d.reestimateHedge()
}

// stripeWedged reports that the stripe has a started attempt in flight AND
// its distributed lock is taken — dispatching another attempt would only
// queue behind the same critical section. A busy stripe whose lock is free
// means the in-flight attempt is stuck before its grant (say, its worker
// sat on a node that just crashed, so its lock request is adrift); a fresh
// attempt elsewhere can still win the lock and serve the request.
func (d *serveDispatcher) stripeWedged(s int) bool {
	return d.stripeBusy[s] > 0 && !d.k.LockAvailable(serveLockBase+s)
}

// finishStripe releases a started attempt's stripe slot and, when the
// stripe frees up, re-dispatches the oldest still-pending penned request.
func (d *serveDispatcher) finishStripe(a *serveAttempt) {
	s := d.stripeOf(a.req)
	d.stripeBusy[s]--
	if d.stripeBusy[s] > 0 {
		return
	}
	// The pen shifts down as it drains, so its array keeps its capacity
	// for the next dispatch to park in.
	pen := d.stripePen[s]
	for j, i := range pen {
		if d.reqs[i].status == reqPending {
			d.stripePen[s] = pen[:copy(pen, pen[j+1:])]
			d.dispatch(i, attemptReroute)
			return
		}
	}
	d.stripePen[s] = pen[:0]
}

// finishReq marks a terminal state; the last terminal closes the shop.
func (d *serveDispatcher) finishReq(i int, st reqStatus) {
	if st != reqDone {
		// Non-completions enter the latency ledger censored at the
		// deadline; see ServeStats.
		d.w.state.censor(d.cfg.Deadline)
	}
	d.reqs[i].status = st
	d.terminal++
	if d.terminal == len(d.reqs) {
		d.closed = true
		for i := range d.boxes {
			if p := d.boxes[i].parked; p != nil {
				d.boxes[i].parked = nil
				p.Wake()
			}
		}
	}
}

// currentHedgeDelay is the quantile-derived hedge delay, clamped into
// [Deadline/8, Deadline/2].
func (d *serveDispatcher) currentHedgeDelay() sim.Time {
	h := d.hedgeDelay
	if h < d.hedgeMin {
		h = d.hedgeMin
	}
	if max := d.cfg.Deadline / 2; h > max {
		h = max
	}
	return h
}

// reestimateHedge refreshes the hedge delay from the completion-latency
// quantile every 32 completions, reading the sorted latency ledger.
func (d *serveDispatcher) reestimateHedge() {
	if d.cfg.HedgeQuantile <= 0 {
		return
	}
	d.sinceHedged++
	if d.sinceHedged < 32 {
		return
	}
	d.sinceHedged = 0
	d.hedgeDelay = percentile(d.w.state.sortedLatencies(), d.cfg.HedgeQuantile)
}

// --- breaker transitions -----------------------------------------------------

// onDeath opens a node's breaker on the failure detector's declare-dead
// signal and re-dispatches every attempt queued on that node's workers to
// live replicas — the stranded work does not wait out its timeout.
func (d *serveDispatcher) onDeath(node int) {
	b := &d.brk[node]
	if b.state != brkOpen {
		b.state = brkOpen
		b.probing = false
		b.timeouts = 0
		d.w.state.breakerOpens++
	}
	for w := range d.boxes {
		if d.threads[w].Node().ID() != node {
			continue
		}
		box := &d.boxes[w]
		if box.head == len(box.q) {
			continue
		}
		drain := box.q[box.head:]
		box.q, box.head = nil, 0
		for _, a := range drain {
			if !a.cancelled && !a.done {
				a.cancelled = true
				d.releaseProbe(a)
				r := &d.reqs[a.req]
				r.live--
				if r.status == reqPending {
					d.w.state.rerouted++
					d.dispatch(a.req, attemptReroute)
				}
			}
			d.release(a) // the mailbox's reference
		}
	}
}

// onRevive half-opens a dead node's breaker: the next request routed to it
// is the probe; its completion closes the breaker, its timeout reopens it.
func (d *serveDispatcher) onRevive(node int) {
	b := &d.brk[node]
	if b.state == brkOpen {
		b.state = brkHalfOpen
		b.probing = false
		b.timeouts = 0
	}
}

// noteTimeout charges an attempt timeout to the node's breaker.
func (d *serveDispatcher) noteTimeout(node int) {
	if d.cfg.BreakerThreshold <= 0 {
		return
	}
	b := &d.brk[node]
	switch b.state {
	case brkHalfOpen:
		// The probe failed: reopen and try again after the cooldown.
		b.state = brkOpen
		b.probing = false
		d.w.state.breakerOpens++
		d.scheduleCooldown(node)
	case brkClosed:
		b.timeouts++
		if b.timeouts >= d.cfg.BreakerThreshold {
			b.state = brkOpen
			b.timeouts = 0
			d.w.state.breakerOpens++
			d.scheduleCooldown(node)
		}
	}
}

// noteSuccess resets the breaker on a completed attempt; a successful
// half-open probe closes it.
func (d *serveDispatcher) noteSuccess(node int) {
	if d.cfg.BreakerThreshold <= 0 {
		return
	}
	b := &d.brk[node]
	b.timeouts = 0
	if b.state == brkHalfOpen {
		b.state = brkClosed
		b.probing = false
	}
}

// scheduleCooldown half-opens a timeout-tripped breaker after a cooldown of
// one Deadline (declared-dead nodes are instead half-opened by their revival
// beat, but the cooldown probe also covers a node that silently recovered).
func (d *serveDispatcher) scheduleCooldown(node int) {
	d.k.Eng.After(d.cfg.Deadline, func() {
		b := &d.brk[node]
		if b.state == brkOpen {
			b.state = brkHalfOpen
			b.probing = false
		}
	})
}

// launchRobust is ServeMix.Launch's dynamic-dispatch path: same bootstrap,
// same serving body, but workers consume dispatcher mailboxes instead of a
// precomputed schedule.
func (w *ServeMix) launchRobust(k *gos.Kernel, p Params, setup *serveSetup) {
	if err := w.Robust.Validate(); err != nil {
		panic(err)
	}
	d := newServeDispatcher(w, k, p.Threads)
	w.robust = d
	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		rng := xrand.New(p.Seed).Derive(uint64(tid) + 6211)
		d.threads[tid] = k.SpawnThread(setup.placement[tid], fmt.Sprintf("serve-%d", tid), func(t *gos.Thread) {
			if tid == 0 {
				w.bootstrap(t, setup)
			}
			t.Barrier(0, setup.parties)
			for {
				a := d.next(tid, t)
				if a == nil {
					return
				}
				r := &d.reqs[a.req]
				if a.cancelled || r.status != reqPending {
					if !a.cancelled && !a.done {
						a.cancelled = true
						r.live--
					}
					d.releaseProbe(a)
					d.release(a)
					continue
				}
				a.started = true
				d.stripeBusy[d.stripeOf(a.req)]++
				w.serveOne(t, rng, int(w.tenant[a.req]), setup)
				d.complete(a, t.Now())
				d.release(a)
			}
		})
	}
	d.start()
}
