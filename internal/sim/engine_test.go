package sim

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time = %v, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestAfterClampsNegative(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(10, func() {
		e.After(-5, func() { fired = true })
	})
	e.Run()
	if !fired {
		t.Fatal("After with negative delay never fired")
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		p.Sleep(50)
		at = p.Now()
	})
	e.Run()
	if at != 150 {
		t.Fatalf("proc time = %v, want 150", at)
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a10")
		p.Sleep(20)
		trace = append(trace, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15)
		trace = append(trace, "b15")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestBlockWake(t *testing.T) {
	e := NewEngine()
	var a *Proc
	woke := false
	pa := e.Spawn("blocked", func(p *Proc) {
		p.Block("test")
		woke = true
	})
	a = pa
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(25)
		a.Wake()
	})
	end := e.Run()
	if !woke {
		t.Fatal("blocked proc never woke")
	}
	if end != 25 {
		t.Fatalf("end = %v, want 25", end)
	}
}

func TestResourceExclusiveFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu")
	var done []string
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			p.Use(r, 10)
			done = append(done, name)
		})
	}
	end := e.Run()
	// Serialized: total 30 time units, FIFO completion order.
	if end != 30 {
		t.Fatalf("end = %v, want 30 (serialized)", end)
	}
	for i, n := range []string{"p0", "p1", "p2"} {
		if done[i] != n {
			t.Fatalf("completion order %v not FIFO", done)
		}
	}
	if r.Busy != 30 {
		t.Fatalf("busy = %v, want 30", r.Busy)
	}
}

func TestResourceReleaseByNonHolderPanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu")
	e.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("release by non-holder did not panic")
			}
		}()
		r.Release(p)
	})
	e.Run()
}

func TestProcCPUTimeAccounting(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu")
	var got Time
	e.Spawn("worker", func(p *Proc) {
		p.Use(r, 40)
		p.Use(r, 2)
		got = p.CPUTime
	})
	e.Run()
	if got != 42 {
		t.Fatalf("CPUTime = %v, want 42", got)
	}
}

func TestWaitQueueWakeOneFIFO(t *testing.T) {
	e := NewEngine()
	q := NewWaitQueue("q")
	var woke []string
	for _, name := range []string{"w0", "w1"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			q.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(5)
		if !q.WakeOne() {
			t.Error("WakeOne found no waiter")
		}
		p.Sleep(5)
		if n := q.WakeAll(); n != 1 {
			t.Errorf("WakeAll woke %d, want 1", n)
		}
	})
	e.Run()
	if len(woke) != 2 || woke[0] != "w0" || woke[1] != "w1" {
		t.Fatalf("wake order = %v", woke)
	}
}

func TestWakeOneEmpty(t *testing.T) {
	q := NewWaitQueue("q")
	if q.WakeOne() {
		t.Fatal("WakeOne on empty queue returned true")
	}
	if q.Len() != 0 {
		t.Fatal("empty queue has waiters")
	}
}

func TestDeadlockPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) {
		p.Block("forever")
	})
	defer func() {
		if recover() == nil {
			t.Error("deadlocked run did not panic")
		}
	}()
	e.Run()
}

// TestProcPanicReachesRun: a panic in a proc body surfaces from Run on the
// caller's goroutine with its original value, and the clock reads the time
// of the event that resumed the proc.
func TestProcPanicReachesRun(t *testing.T) {
	errBoom := errors.New("boom")
	e := NewEngine()
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(10)
		panic(errBoom)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != errBoom {
		t.Fatalf("recovered %v, want the proc's own panic value", got)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childRan = true
		})
		p.Sleep(10)
	})
	end := e.Run()
	if !childRan {
		t.Fatal("child never ran")
	}
	if end != 20 {
		t.Fatalf("end = %v, want 20", end)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative sleep did not panic")
			}
		}()
		p.Sleep(-1)
	})
	e.Run()
}

// TestDeterminism runs the same proc mix twice and checks identical traces.
func TestDeterminism(t *testing.T) {
	build := func() (traceOut *[]int) {
		var trace []int
		e := NewEngine()
		r := NewResource(e, "cpu")
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Use(r, Time(7+i))
					trace = append(trace, i*10+j)
				}
			})
		}
		e.Run()
		return &trace
	}
	a, b := build(), build()
	if len(*a) != len(*b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(*a), len(*b))
	}
	for i := range *a {
		if (*a)[i] != (*b)[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, *a, *b)
		}
	}
}

// Property: for any batch of (delay, id) events scheduled up-front, the
// execution order is sorted by (delay, insertion order).
func TestQuickEventOrderProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			i, d := i, Time(d)
			e.Schedule(d, func() { fired = append(fired, rec{d, i}) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			prev, cur := fired[i-1], fired[i]
			if prev.at > cur.at {
				return false
			}
			if prev.at == cur.at && prev.seq > cur.seq {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{5, "5ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Error("Seconds conversion wrong")
	}
	if (1500 * Microsecond).Milliseconds() != 1.5 {
		t.Error("Milliseconds conversion wrong")
	}
}

// TestRunUntilPausesAtSafePoint: epoch-stepped execution must fire exactly
// the events due by each limit, leave the clock at the pause point, and
// produce the same trace as a straight Run.
func TestRunUntilPausesAtSafePoint(t *testing.T) {
	trace := func(step Time) ([]Time, Time) {
		e := NewEngine()
		var fired []Time
		e.Spawn("ticker", func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(30)
				fired = append(fired, p.Now())
			}
		})
		if step <= 0 {
			end := e.Run()
			return fired, end
		}
		var now Time
		for !e.RunUntil(now) {
			if e.Now() != now {
				t.Fatalf("paused clock at %v, want %v", e.Now(), now)
			}
			now += step
		}
		return fired, e.Now()
	}

	want, wantEnd := trace(0)
	for _, step := range []Time{7, 30, 45, 1000} {
		got, _ := trace(step)
		if len(got) != len(want) {
			t.Fatalf("step %v: fired %d events, want %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %v: event %d at %v, want %v", step, i, got[i], want[i])
			}
		}
	}
	if wantEnd != 300 {
		t.Fatalf("end time %v, want 300ns", wantEnd)
	}
}

// TestRunUntilAllowsMidRunScheduling: events scheduled while paused at the
// limit run when stepping resumes.
func TestRunUntilAllowsMidRunScheduling(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(100) })
	if e.RunUntil(50) {
		t.Fatal("completed before the sleeper woke")
	}
	var injected bool
	e.Schedule(e.Now(), func() { injected = true })
	if e.RunUntil(60) {
		t.Fatal("completed before the sleeper woke")
	}
	if !injected {
		t.Fatal("event scheduled at the pause point did not fire on resume")
	}
	if !e.RunUntil(100) || !e.Idle() {
		t.Fatal("run did not complete")
	}
}

// BenchmarkProcHandoff times one Sleep: the scheduler resumes the proc, and
// the proc yields back.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
