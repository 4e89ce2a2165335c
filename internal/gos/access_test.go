package gos

import (
	"fmt"
	"strings"
	"testing"

	"jessica2/internal/heap"
	"jessica2/internal/sim"
)

// recorder is an observer that logs every callback as "name thread event".
type recorder struct {
	name string
	log  *[]string
}

func (r recorder) OnAccess(t *Thread, o *heap.Object, write, first bool) {
	*r.log = append(*r.log, fmt.Sprintf("%s %s access%d first=%v", r.name, t.Name(), o.ID, first))
}

func (r recorder) OnIntervalClose(t *Thread) {
	*r.log = append(*r.log, fmt.Sprintf("%s %s close", r.name, t.Name()))
}

// TestAccessEntryRevivedInLaterInterval: an object touched in one interval
// and again in a later one is a first touch again, and its entry carries
// nothing over: the write of the first interval commits once, not again at
// the close of the read-only second.
func TestAccessEntryRevivedInLaterInterval(t *testing.T) {
	k := testKernel(1, TrackingSampled)
	cls := k.Reg.DefineClass("X", 64, 0)
	var log []string
	var obj *heap.Object
	var logged int64
	th := k.SpawnThread(0, "t0", func(th *Thread) {
		obj = th.Alloc(cls)
		th.Write(obj)
		th.Read(obj)
		th.Barrier(1, 1)
		th.Read(obj)
		th.Read(obj)
		th.Barrier(2, 1)
		logged = th.Stats().Logged
	})
	th.AddObserver(recorder{"r", &log})
	k.Run()
	want := []string{
		"r t0 access1 first=true", "r t0 access1 first=false", "r t0 close",
		"r t0 access1 first=true", "r t0 access1 first=false", "r t0 close",
	}
	if got := strings.Join(log, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("callbacks:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	if v := k.Version(obj.ID); v != 1 {
		t.Fatalf("version = %d, want 1 (the read-only interval committed a write)", v)
	}
	if logged != 2 {
		t.Fatalf("logged = %d, want 2 (once per interval)", logged)
	}
}

// TestMigratedThreadReresolvesCopies: after MoveTo the thread resolves its
// copy headers on the new node, so an object homed where it came from
// faults there once, and is a local hit again after it moves back.
func TestMigratedThreadReresolvesCopies(t *testing.T) {
	k := testKernel(2, TrackingOff)
	obj := k.Reg.Alloc(k.Reg.DefineClass("X", 64, 0), 0)
	var faults []int64
	k.SpawnThread(0, "mover", func(th *Thread) {
		th.Read(obj) // home copy on node 0
		faults = append(faults, th.Stats().Faults)
		th.MoveTo(1, 64)
		th.Read(obj) // node 1 has no valid copy yet
		th.Read(obj)
		faults = append(faults, th.Stats().Faults)
		th.MoveTo(0, 64)
		th.Read(obj) // node 0's home copy again
		faults = append(faults, th.Stats().Faults)
	})
	k.Run()
	if fmt.Sprint(faults) != "[0 1 1]" {
		t.Fatalf("faults after each node = %v, want [0 1 1]", faults)
	}
	if n := k.Node(1).NumCopies(); n != 1 {
		t.Fatalf("node 1 holds %d copy headers, want 1", n)
	}
}

// TestAccessTableGrowsForLateObjects: an object allocated mid-run, beyond
// every page the thread's table holds, is tracked like any other.
func TestAccessTableGrowsForLateObjects(t *testing.T) {
	k := testKernel(1, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	var log []string
	var late *heap.Object
	th := k.SpawnThread(0, "t0", func(th *Thread) {
		th.Read(th.Alloc(cls)) // the table's first page
		for i := 0; i < 5000; i++ {
			late = th.Alloc(cls)
		}
		th.Write(late)
		th.Read(late)
	})
	th.AddObserver(recorder{"r", &log})
	k.Run()
	want := fmt.Sprintf("r t0 access1 first=true\nr t0 access%d first=true\nr t0 access%[1]d first=false\nr t0 close", late.ID)
	if got := strings.Join(log, "\n"); got != want {
		t.Fatalf("callbacks:\n%s\nwant:\n%s", got, want)
	}
	if v := k.Version(late.ID); v != 1 {
		t.Fatalf("late object's version = %d, want 1", v)
	}
}

// countObserver counts callbacks per thread id without allocating.
type countObserver struct {
	accesses, closes [4]int
}

func (c *countObserver) OnAccess(t *Thread, o *heap.Object, write, first bool) { c.accesses[t.ID()]++ }
func (c *countObserver) OnIntervalClose(t *Thread)                             { c.closes[t.ID()]++ }

// TestSteadyStateHitAllocatesNothing: a repeated access to an object the
// thread already holds, observers included, allocates nothing.
func TestSteadyStateHitAllocatesNothing(t *testing.T) {
	k := testKernel(1, TrackingSampled)
	cls := k.Reg.DefineClass("X", 64, 0)
	k.AddObserver(&countObserver{})
	var allocs float64
	th := k.SpawnThread(0, "t0", func(th *Thread) {
		o := th.Alloc(cls)
		th.Write(o)
		// 1001 checks at 3 ns stay below the CPU flush threshold, so the
		// measured loop never parks.
		allocs = testing.AllocsPerRun(1000, func() { th.Read(o) })
	})
	th.AddObserver(&countObserver{})
	k.Run()
	if allocs != 0 {
		t.Fatalf("steady-state hit allocates %v times per access, want 0", allocs)
	}
}

// TestKernelObserverAddedAfterSpawnSeesEveryThread: Kernel.AddObserver
// reaches threads spawned before and after it.
func TestKernelObserverAddedAfterSpawnSeesEveryThread(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	body := func(th *Thread) {
		th.Read(th.Alloc(cls))
		th.Read(th.Alloc(cls))
	}
	k.SpawnThread(0, "t0", body)
	k.SpawnThread(1, "t1", body)
	c := &countObserver{}
	k.AddObserver(c)
	k.SpawnThread(1, "t2", body)
	k.Run()
	if c.accesses != [4]int{2, 2, 2, 0} || c.closes != [4]int{1, 1, 1, 0} {
		t.Fatalf("accesses %v closes %v, want 2 accesses and 1 close on each of three threads", c.accesses, c.closes)
	}
}

// TestThreadObserverSeesOnlyItsThread: Thread.AddObserver reaches that
// thread alone.
func TestThreadObserverSeesOnlyItsThread(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	body := func(th *Thread) {
		th.Read(th.Alloc(cls))
		th.Barrier(1, 2)
		th.Read(th.Alloc(cls))
	}
	k.SpawnThread(0, "t0", body)
	t1 := k.SpawnThread(1, "t1", body)
	c := &countObserver{}
	t1.AddObserver(c)
	k.Run()
	if c.accesses != [4]int{0, 2, 0, 0} || c.closes != [4]int{0, 2, 0, 0} {
		t.Fatalf("accesses %v closes %v, want t1's 2 accesses and 2 closes only", c.accesses, c.closes)
	}
}

// TestObserverOrderFollowsRegistration: on each thread, callbacks run in
// registration order, kernel-wide and per-thread observers interleaved.
func TestObserverOrderFollowsRegistration(t *testing.T) {
	k := testKernel(2, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	var log []string
	k.AddObserver(recorder{"A", &log})
	t0 := k.SpawnThread(0, "t0", func(th *Thread) { th.Read(th.Alloc(cls)) })
	t1 := k.SpawnThread(1, "t1", func(th *Thread) {
		th.SleepUntil(sim.Millisecond) // after t0 has finished
		th.Read(th.Alloc(cls))
	})
	t0.AddObserver(recorder{"B", &log})
	k.AddObserver(recorder{"C", &log})
	t1.AddObserver(recorder{"D", &log})
	k.Run()
	want := []string{
		"A t0 access1 first=true", "B t0 access1 first=true", "C t0 access1 first=true",
		"A t0 close", "B t0 close", "C t0 close",
		"A t1 access2 first=true", "C t1 access2 first=true", "D t1 access2 first=true",
		"A t1 close", "C t1 close", "D t1 close",
	}
	if got := strings.Join(log, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("callbacks:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}
