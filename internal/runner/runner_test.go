package runner

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

func TestGoCoversAllIndexes(t *testing.T) {
	hit := make([]atomic.Int32, 50)
	Go(New(8), len(hit), func(i int) { hit[i].Add(1) })
	for i := range hit {
		if hit[i].Load() != 1 {
			t.Fatalf("index %d ran %d times", i, hit[i].Load())
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

// TestBackoffDelay pins the capped-exponential schedule, its zero-value
// no-delay contract, and overflow safety at absurd attempt counts.
func TestBackoffDelay(t *testing.T) {
	cases := []struct {
		name    string
		bo      Backoff
		attempt int
		want    time.Duration
	}{
		{"zero value never delays", Backoff{}, 0, 0},
		{"zero value never delays late", Backoff{}, 9, 0},
		{"first attempt is base", Backoff{Base: 10 * time.Millisecond, Max: time.Second}, 0, 10 * time.Millisecond},
		{"doubles", Backoff{Base: 10 * time.Millisecond, Max: time.Second}, 1, 20 * time.Millisecond},
		{"doubles again", Backoff{Base: 10 * time.Millisecond, Max: time.Second}, 3, 80 * time.Millisecond},
		{"hits the cap", Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond}, 4, 50 * time.Millisecond},
		{"stays at the cap", Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond}, 40, 50 * time.Millisecond},
		{"negative attempt clamps to base", Backoff{Base: 10 * time.Millisecond, Max: time.Second}, -3, 10 * time.Millisecond},
		{"no cap grows freely", Backoff{Base: time.Millisecond}, 10, 1024 * time.Millisecond},
		{"huge attempt does not overflow", Backoff{Base: time.Second}, 500, Backoff{Base: time.Second}.Delay(499)},
	}
	for _, tc := range cases {
		if got := tc.bo.Delay(tc.attempt); got != tc.want {
			t.Errorf("%s: Delay(%d) = %v, want %v", tc.name, tc.attempt, got, tc.want)
		}
	}
	// Overflow guard: the uncapped schedule must saturate positive, never
	// wrap negative (a negative Sleep returns immediately — a hot loop).
	if d := (Backoff{Base: time.Hour}).Delay(200); d <= 0 {
		t.Fatalf("uncapped Delay(200) = %v, want a positive saturated delay", d)
	}
}
