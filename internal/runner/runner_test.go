package runner

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jessica2/internal/sim"
)

func TestCollectOrderPreserved(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := New(workers)
		jobs := make([]func() int, 100)
		for i := range jobs {
			i := i
			jobs[i] = func() int {
				// Reverse-staggered completion: later jobs finish first, so
				// any completion-order collection would scramble results.
				time.Sleep(time.Duration(len(jobs)-i) * 10 * time.Microsecond)
				return i * i
			}
		}
		out := Collect(p, jobs)
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestCollectBoundsWorkers(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	p := New(workers)
	jobs := make([]func() int, 64)
	for i := range jobs {
		jobs[i] = func() int {
			n := inFlight.Add(1)
			for {
				cur := peak.Load()
				if n <= cur || peak.CompareAndSwap(cur, n) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			inFlight.Add(-1)
			return 0
		}
	}
	Collect(p, jobs)
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs, pool width %d", got, workers)
	}
}

func TestCollectPanicPropagatesLowestIndex(t *testing.T) {
	p := New(4)
	jobs := make([]func() int, 16)
	for i := range jobs {
		i := i
		jobs[i] = func() int {
			if i == 3 || i == 11 {
				panic(i)
			}
			return i
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		jp, ok := r.(*JobPanic)
		if !ok {
			t.Fatalf("panic value is %T, want *JobPanic: %v", r, r)
		}
		if jp.Job != 3 {
			t.Fatalf("surfaced job %d, want the lowest index 3", jp.Job)
		}
		if !strings.Contains(jp.Error(), "job 3 panicked: 3") {
			t.Fatalf("wrong panic text: %q", jp.Error())
		}
	}()
	Collect(p, jobs)
}

// TestCollectPanicPreservesValueAndStack: the re-panicked *JobPanic must
// carry the job's original panic value (not a formatted copy) and the
// worker goroutine's stack at panic time, so a crashing experiment stays
// debuggable through the pool fan-out.
func TestCollectPanicPreservesValueAndStack(t *testing.T) {
	type marker struct{ n int }
	cause := &marker{n: 7}
	defer func() {
		r := recover()
		jp, ok := r.(*JobPanic)
		if !ok {
			t.Fatalf("panic value is %T, want *JobPanic", r)
		}
		if jp.Value != cause {
			t.Fatalf("Value = %#v, want the original panic value %#v", jp.Value, cause)
		}
		if !strings.Contains(string(jp.Stack), "panickyHelperForStackCapture") {
			t.Fatalf("Stack does not show the panicking frame:\n%s", jp.Stack)
		}
	}()
	Collect(New(2), []func() int{
		func() int { return 0 },
		func() int { panickyHelperForStackCapture(cause); return 1 },
	})
}

//go:noinline
func panickyHelperForStackCapture(v any) { panic(v) }

// TestCollectPanicUnwrapsError: when a job panics with an error value,
// errors.Is sees through the JobPanic wrapper.
func TestCollectPanicUnwrapsError(t *testing.T) {
	boom := errors.New("boom")
	defer func() {
		jp, ok := recover().(*JobPanic)
		if !ok {
			t.Fatal("expected *JobPanic")
		}
		if !errors.Is(jp, boom) {
			t.Fatalf("errors.Is(%v, boom) = false", jp)
		}
	}()
	Collect(New(2), []func() int{
		func() int { panic(boom) },
		func() int { return 0 },
	})
}

// TestCollectProcPanicIsJobPanic: a panic in a simulated proc's body
// reaches its job's goroutine through Engine.Run, so Collect reports it as
// that job's *JobPanic while the other jobs run to completion.
func TestCollectProcPanicIsJobPanic(t *testing.T) {
	boom := errors.New("boom")
	ends := make([]sim.Time, 4)
	jobs := make([]func() int, len(ends))
	for i := range jobs {
		jobs[i] = func() int {
			e := sim.NewEngine()
			e.Spawn("proc", func(p *sim.Proc) {
				p.Sleep(10)
				if i == 1 {
					panic(boom)
				}
			})
			ends[i] = e.Run()
			return i
		}
	}
	defer func() {
		jp, ok := recover().(*JobPanic)
		if !ok {
			t.Fatal("expected *JobPanic")
		}
		if jp.Job != 1 || jp.Value != boom {
			t.Fatalf("JobPanic{Job: %d, Value: %v}, want job 1 with the proc's own value", jp.Job, jp.Value)
		}
		for i, end := range ends {
			if i != 1 && end != 10 {
				t.Errorf("job %d ended at %v, want 10", i, end)
			}
		}
	}()
	Collect(New(2), jobs)
}

func TestNilAndSequentialPoolsRunInline(t *testing.T) {
	// Inline execution must use the calling goroutine in submission order.
	var order []int
	var mu sync.Mutex
	jobs := make([]func() int, 8)
	for i := range jobs {
		i := i
		jobs[i] = func() int {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return i
		}
	}
	for _, p := range []*Pool{nil, New(1), {}} {
		order = order[:0]
		out := Collect(p, jobs)
		for i := range jobs {
			if order[i] != i || out[i] != i {
				t.Fatalf("pool %+v: order=%v out=%v", p, order, out)
			}
		}
	}
}

func TestWorkersDefaults(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) must default to at least one worker")
	}
	if got := New(7).Workers(); got != 7 {
		t.Fatalf("Workers() = %d, want 7", got)
	}
	if (*Pool)(nil).Workers() != 1 {
		t.Fatal("nil pool must be one worker")
	}
}

// TestTryCollectBoundedRetries: TryCollect never retries. A failing job
// runs exactly once, reports its error, has its value zeroed, and does not
// poison its neighbors.
func TestTryCollectBoundedRetries(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("permanent")
	jobs := []func() (string, error){
		func() (string, error) { return "ok-0", nil },
		func() (string, error) { ran.Add(1); return "partial", boom },
		func() (string, error) { return "ok-2", nil },
	}
	out := TryCollect(New(2), jobs)
	if out[0].Err != nil || out[0].Value != "ok-0" || out[2].Err != nil || out[2].Value != "ok-2" {
		t.Fatalf("healthy neighbors perturbed: %+v", out)
	}
	if out[1].Err != boom {
		t.Fatalf("err = %v, want %v", out[1].Err, boom)
	}
	if out[1].Value != "" {
		t.Fatalf("failed job's value = %q, want zeroed", out[1].Value)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("failing job ran %d times, want 1", got)
	}
}
