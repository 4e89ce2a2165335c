// Package runner is the parallel deterministic experiment driver: it fans
// an ordered list of independent, seed-deterministic jobs out over a
// bounded worker pool and collects their results back in submission order.
//
// Every paper artifact (tables, figures, sensitivity and closed-loop
// sweeps) is dozens of fully independent simulator runs; executed strictly
// sequentially they bind regeneration wall-clock to a single core. Each
// job here is a pure function of its inputs (experiments.Run on a Spec, or
// a closure building its own session), shares no mutable state with its
// peers, and is collected positionally — so a parallel regeneration is
// byte-identical to the sequential one, only the wall-clock moves.
package runner

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Pool bounds the worker fan-out. The zero value and nil both mean
// sequential inline execution (one worker, no goroutines), which is the
// right default for benchmarks that measure single-run cost.
type Pool struct {
	workers int
}

// New returns a pool of the given width; workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool width; a nil or zero pool is one worker.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// JobPanic carries a job panic out of Collect with the original panic value
// and the panicking goroutine's stack intact. Collect re-panics with a
// *JobPanic instead of a flattened string so a caller that recovers (or a
// crash report) still has the real Value — a typed error, a sentinel — and
// the stack of the job that raised it, not the stack of the collecting
// goroutine.
type JobPanic struct {
	// Job is the panicking job's submission index.
	Job int
	// Value is the original panic value, unmodified.
	Value any
	// Stack is the panicking goroutine's stack trace (debug.Stack), captured
	// at recovery inside the job's own goroutine.
	Stack []byte
}

// Error renders the historical "runner: job N panicked: v" message, so a
// recover site matching on the text keeps working.
func (p *JobPanic) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", p.Job, p.Value)
}

func (p *JobPanic) String() string { return p.Error() }

// Unwrap exposes a panic Value that was itself an error to errors.Is/As.
func (p *JobPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Collect executes every job and returns the results in submission order.
// Jobs must be independent (no shared mutable state) and deterministic;
// workers pull jobs in index order from a shared cursor, so with one worker
// the execution order — not just the result order — matches a plain loop.
//
// A panicking job does not tear down its worker: remaining jobs still run,
// and the first panic (by job index, deterministically) is re-raised on the
// caller as a *JobPanic preserving the original value and stack once all
// workers have parked. A panic in a simulated proc's body counts as its
// job's panic: the engine re-raises it on the goroutine running the job.
func Collect[T any](p *Pool, jobs []func() T) []T {
	out := make([]T, len(jobs))
	workers := p.Workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, job := range jobs {
			out[i] = job()
		}
		return out
	}

	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  *JobPanic
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				stack := debug.Stack()
				mu.Lock()
				if first == nil || i < first.Job {
					first = &JobPanic{Job: i, Value: r, Stack: stack}
				}
				mu.Unlock()
			}
		}()
		out[i] = jobs[i]()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
	return out
}

// Go runs fn for every index in [0, n) and is Collect for side-effecting
// jobs that write their own results (e.g. into a caller-allocated slice
// slot). The same independence and determinism rules apply.
func Go(p *Pool, n int, fn func(i int)) {
	jobs := make([]func() struct{}, n)
	for i := range jobs {
		i := i
		jobs[i] = func() struct{} { fn(i); return struct{}{} }
	}
	Collect(p, jobs)
}

// Result is one fallible job's outcome in a TryCollect batch.
type Result[T any] struct {
	// Value is the job's return (the zero value when Err is set).
	Value T
	// Err is the job's error; nil means the job succeeded.
	Err error
}

// Backoff is a capped exponential per-attempt delay policy: the n-th retry
// of an operation waits min(Base·2ⁿ, Max). The zero value means no delay at
// all (every retry is immediate), and Max <= 0 leaves the doubling uncapped.
// The caller chooses the clock: the dispatcher sleeps the delays in real
// time between transport retries, while the robust serving layer schedules
// them on the simulated clock (both count nanoseconds).
type Backoff struct {
	// Base is the delay before the first retry; <= 0 disables all delays.
	Base time.Duration
	// Max caps the doubled delays; <= 0 means uncapped.
	Max time.Duration
}

// Delay returns the pause before retry number attempt (0 = first retry).
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	if d <= 0 {
		return 0
	}
	if attempt < 0 {
		attempt = 0 // clamp: a confused caller gets the base delay, not a hot loop
	}
	for ; attempt > 0; attempt-- {
		if b.Max > 0 && d >= b.Max {
			return b.Max
		}
		if d > math.MaxInt64/2 {
			return time.Duration(math.MaxInt64)
		}
		d *= 2
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	return d
}

// TryCollect is Collect for fallible jobs: each job runs once and its
// outcome comes back in submission order. A failing job neither aborts the
// batch nor perturbs its ordering; its Value is zeroed and its error
// reported. Panics are not converted to errors — they propagate exactly as
// under Collect.
func TryCollect[T any](p *Pool, jobs []func() (T, error)) []Result[T] {
	wrapped := make([]func() Result[T], len(jobs))
	for i := range jobs {
		job := jobs[i]
		wrapped[i] = func() Result[T] {
			v, err := job()
			if err != nil {
				var zero T
				v = zero
			}
			return Result[T]{Value: v, Err: err}
		}
	}
	return Collect(p, wrapped)
}
