// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine. It is the substrate on which the distributed JVM
// (cluster nodes, network, threads) is modelled.
//
// The engine owns a virtual clock. Simulated activities are Procs: coroutines
// that run one at a time, each until it yields back to the scheduler.
// A Proc advances the clock by sleeping or by using a Resource (e.g. a node
// CPU); it can block on a WaitQueue and be woken by another Proc or by an
// event closure. Events at the same virtual time fire in the order they were
// scheduled, so a run is a pure function of its inputs.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"strconv"
)

// Time is virtual time in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Milliseconds renders t as a float number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds renders t as a float number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// event is a scheduled callback. Events run in the scheduler's context and
// must not block; they typically wake Procs or schedule further events.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events at the same time
	fn  func()
}

// eventPQ is a 4-ary min-heap of events ordered by (at, seq). Events are
// stored by value, so pushing and popping never heap-allocates (the boxed
// container/heap interface would allocate a *event per push and per pop).
// The 4-ary layout halves the tree depth versus a binary heap, trading a
// slightly wider child scan on sift-down for fewer cache-missing levels —
// the queue is the single hottest data structure in the simulator. It backs
// the bucketed scheduler (per-bucket heaps and the far-timer overflow in
// sched.go) and is the reference its pop-order property tests compare
// against.
type eventPQ []event

func (q *eventPQ) size() int    { return len(*q) }
func (q *eventPQ) empty() bool  { return len(*q) == 0 }
func (q *eventPQ) nextAt() Time { return (*q)[0].at }

func (q eventPQ) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventPQ) push(e event) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventPQ) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	// Zero the vacated slot: the slice keeps its capacity across reuse, so a
	// stale fn would pin its captured Proc (and everything the closure
	// reaches) until the slot is next overwritten.
	h[n] = event{}
	h = h[:n]
	*q = h
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// Engine is the simulation scheduler. Its procs are coroutines of the
// goroutine that calls Run or RunUntil and never run in parallel with it, so
// an engine must be driven from one goroutine at a time.
type Engine struct {
	now     Time
	queue   schedQueue
	seq     uint64
	procs   []*Proc
	running int // procs started and not yet finished
}

// NewEngine returns an engine with the clock at zero and the default
// scheduler geometry.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule registers fn to run at absolute virtual time at. Scheduling in the
// past (at < Now) is a programming error and panics.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule in the past: at=%v now=%v", at, e.now))
	}
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, fn: fn})
}

// After registers fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// Spawn creates a Proc running body as a coroutine. The Proc does not start
// executing until the scheduler reaches its start event. Spawn may be called
// before Run or from within a running Proc or event.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.wakeFn = func() { p.next() }
	e.procs = append(e.procs, p)
	e.running++
	e.Schedule(e.now, func() {
		p.started = true
		// The stop function is never called: the coroutine of a proc that
		// is still parked when its engine is dropped stays parked.
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yieldFn = yield
			defer func() {
				p.done = true
				e.running--
			}()
			body(p)
		})
		p.next()
	})
	return p
}

// Run executes events until the queue drains. It returns the final virtual
// time. If procs are still blocked when the queue drains, Run panics with a
// deadlock report (all runnable work is exhausted but the simulation has not
// terminated). A panic raised in a proc body or an event reaches the caller
// of Run with its original value.
func (e *Engine) Run() Time {
	for !e.queue.empty() {
		ev := e.queue.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		ev.fn()
	}
	if e.running > 0 {
		panic("sim: deadlock: " + e.blockedReport())
	}
	return e.now
}

// RunUntil executes events up to and including virtual time limit, then
// pauses with the clock advanced to limit. It returns true when the
// simulation has completed (the event queue drained), false when it paused
// at the limit with work still queued. Because the scheduler only ever
// transfers control between events, the pause point is a global safe point:
// no proc is mid-step, and the caller may inspect state, schedule new
// events at or after limit, and resume with another RunUntil or Run call.
// Like Run, it panics with a deadlock report if the queue drains while
// procs are still blocked, and a panic in a proc body or an event reaches
// its caller with the original value.
func (e *Engine) RunUntil(limit Time) bool {
	for !e.queue.empty() {
		if e.queue.nextAt() > limit {
			if limit > e.now {
				e.now = limit
			}
			return false
		}
		ev := e.queue.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		ev.fn()
	}
	if e.running > 0 {
		panic("sim: deadlock: " + e.blockedReport())
	}
	return true
}

// Idle reports whether the event queue has drained (no further work is
// scheduled). Together with a false RunUntil return it distinguishes
// "paused at the limit" from "finished before the limit".
func (e *Engine) Idle() bool { return e.queue.empty() }

func (e *Engine) blockedReport() string {
	var names []string
	for _, p := range e.procs {
		if p.started && !p.done {
			at := p.name + "@" + p.blockedAt + p.blockedName
			if p.blockedOnID {
				at += strconv.Itoa(p.blockedID)
			}
			names = append(names, at)
		}
	}
	sort.Strings(names)
	if len(names) > 8 {
		names = append(names[:8], fmt.Sprintf("... (%d total)", len(names)))
	}
	return fmt.Sprint(names)
}

// Proc is a simulated process (a DJVM thread, a daemon, a protocol handler).
// Its body runs as a coroutine; Sleep, Block, BlockOn and Use park it, so
// only the proc's own body may call them.
type Proc struct {
	eng       *Engine
	name      string
	started   bool
	done      bool
	blockedAt string
	// blockedID, when blockedOnID is set, is the integer the deadlock report
	// appends to blockedAt (a lock or barrier id). Keeping it apart from the
	// string lets BlockOn park without formatting on every call.
	blockedID   int
	blockedOnID bool
	// blockedName, set by BlockNamed, is the name the deadlock report
	// appends to blockedAt (a class, resource or queue name), kept apart
	// for the same reason.
	blockedName string

	// wakeFn is the proc's dispatch closure, built once at Spawn so that
	// Sleep and Wake — fired once per simulated event on the hot path —
	// enqueue it without allocating a fresh closure each time.
	wakeFn func()

	// next runs the proc's coroutine until it yields or returns. A panic in
	// the body re-panics from next, on the scheduler's goroutine, with its
	// original value. yieldFn, called from the body, hands control back to
	// next's caller.
	next    func() (struct{}, bool)
	yieldFn func(struct{}) bool

	// CPUTime accumulates virtual time this proc spent holding a Resource
	// via Use; useful for per-thread CPU accounting.
	CPUTime Time
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// yield returns control to the scheduler and blocks until re-dispatched.
func (p *Proc) yield(why string) {
	p.blockedAt = why
	p.yieldFn(struct{}{})
	p.blockedAt = ""
}

// Sleep advances the proc's local time by d without consuming any resource.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.eng
	e.Schedule(e.now+d, p.wakeFn)
	p.yield("sleep")
}

// Block parks the proc until another party calls Wake.
func (p *Proc) Block(why string) {
	p.yield(why)
}

// BlockOn is Block for a reason that names a numbered object: the deadlock
// report shows why followed by id (BlockOn("lock", 7) reads "lock7"). The id
// is formatted only if that report is built, so parking allocates nothing.
func (p *Proc) BlockOn(why string, id int) {
	p.blockedID, p.blockedOnID = id, true
	p.yield(why)
	p.blockedOnID = false
}

// BlockNamed is Block for a reason that names an object: the deadlock
// report shows why followed by name (BlockNamed("wait ", "q") reads
// "wait q"). The two are joined only if that report is built, so parking
// allocates nothing.
func (p *Proc) BlockNamed(why, name string) {
	p.blockedName = name
	p.yield(why)
	p.blockedName = ""
}

// Wake schedules p to resume at the current virtual time. It must be called
// from the scheduler context (an event closure) or from another running proc.
func (p *Proc) Wake() {
	p.eng.Schedule(p.eng.now, p.wakeFn)
}

// Use occupies r exclusively for a nominal duration d of work, queuing FIFO
// behind other users. It models non-preemptive execution on a serially
// shared resource such as a single-core CPU. The occupied virtual time is
// d scaled by the resource's current speed factor (slow nodes take longer
// to perform the same nominal work).
func (p *Proc) Use(r *Resource, d Time) {
	if d < 0 {
		panic("sim: negative use")
	}
	r.Acquire(p)
	// Scale after acquiring: work queued behind a busy resource runs at
	// the speed in effect when its slice actually starts, so a slowdown
	// episode beginning while the proc waited is charged correctly.
	d = r.scale(d)
	p.Sleep(d)
	r.Release(p)
	p.CPUTime += d
}

// Resource is a FIFO exclusive resource (e.g. one CPU core, a NIC).
type Resource struct {
	eng     *Engine
	name    string
	holder  *Proc
	waiters []*Proc
	// Busy accumulates total occupied virtual time.
	Busy        Time
	acquiredAt  Time
	utilization bool

	// speed is the resource's relative service rate: nominal work d
	// occupies d/speed of virtual time. 0 means the default 1.0. It is the
	// per-node clock-scaling hook the scenario engine uses to model
	// heterogeneous clusters and transient noisy-neighbor slowdowns.
	speed float64
}

// NewResource creates a named resource on e.
func NewResource(e *Engine, name string) *Resource {
	return &Resource{eng: e, name: name}
}

// SetSpeed installs a relative service rate: 1.0 is nominal, 0.5 makes the
// resource take twice the virtual time per unit of nominal work. Changing
// the speed affects subsequent Use calls only (a slice already in progress
// completes at the old rate). Non-positive factors panic.
func (r *Resource) SetSpeed(factor float64) {
	if factor <= 0 {
		panic("sim: non-positive resource speed")
	}
	r.speed = factor
}

// Speed reports the current speed factor (1.0 when never set).
func (r *Resource) Speed() float64 {
	if r.speed == 0 {
		return 1
	}
	return r.speed
}

// scale converts nominal work into occupied virtual time under the current
// speed factor, rounding to the nearest nanosecond.
func (r *Resource) scale(d Time) Time {
	if r.speed == 0 || r.speed == 1 {
		return d
	}
	return Time(float64(d)/r.speed + 0.5)
}

// Acquire takes exclusive ownership, blocking FIFO if held.
func (r *Resource) Acquire(p *Proc) {
	if r.holder == nil {
		r.holder = p
		r.acquiredAt = r.eng.now
		return
	}
	r.waiters = append(r.waiters, p)
	p.BlockNamed("acquire ", r.name)
	// On wake, ownership has been transferred to p by Release.
}

// Release relinquishes ownership and hands the resource to the first waiter.
func (r *Resource) Release(p *Proc) {
	if r.holder != p {
		panic("sim: release by non-holder of " + r.name)
	}
	r.Busy += r.eng.now - r.acquiredAt
	if len(r.waiters) == 0 {
		r.holder = nil
		return
	}
	next := r.waiters[0]
	copy(r.waiters, r.waiters[1:])
	r.waiters[len(r.waiters)-1] = nil // drop the stale Proc reference
	r.waiters = r.waiters[:len(r.waiters)-1]
	r.holder = next
	r.acquiredAt = r.eng.now
	next.Wake()
}

// WaitQueue is a FIFO condition queue: procs Wait, other parties WakeOne or
// WakeAll. It is the building block for locks, barriers and mailboxes.
type WaitQueue struct {
	name    string
	waiters []*Proc
}

// NewWaitQueue returns an empty queue with a diagnostic name.
func NewWaitQueue(name string) *WaitQueue { return &WaitQueue{name: name} }

// Wait parks the calling proc on the queue.
func (q *WaitQueue) Wait(p *Proc) {
	q.waiters = append(q.waiters, p)
	p.BlockNamed("wait ", q.name)
}

// WakeOne releases the oldest waiter; it reports whether one was woken.
func (q *WaitQueue) WakeOne() bool {
	if len(q.waiters) == 0 {
		return false
	}
	p := q.waiters[0]
	copy(q.waiters, q.waiters[1:])
	q.waiters[len(q.waiters)-1] = nil // drop the stale Proc reference
	q.waiters = q.waiters[:len(q.waiters)-1]
	p.Wake()
	return true
}

// WakeAll releases every waiter in FIFO order and returns how many woke.
func (q *WaitQueue) WakeAll() int {
	n := len(q.waiters)
	for i, p := range q.waiters {
		p.Wake()
		q.waiters[i] = nil // the retained backing array must not pin procs
	}
	q.waiters = q.waiters[:0]
	return n
}

// Len reports the number of parked procs.
func (q *WaitQueue) Len() int { return len(q.waiters) }
