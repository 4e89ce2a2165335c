package gos

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
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
	*r.log = append(*r.log, fmt.Sprintf("%s %s access%d first=%v", r.name, t.name, o.ID, first))
}

func (r recorder) OnIntervalClose(t *Thread) {
	*r.log = append(*r.log, fmt.Sprintf("%s %s close", r.name, t.name))
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
	if v := k.version(obj.ID); v != 1 {
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
	if n := k.Node(1).numCopies; n != 1 {
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
	if v := k.version(late.ID); v != 1 {
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

// TestWarmRemoteFaultAllocatesNothing: once the free lists are warm, a
// remote fault's request, the home's service event and the reply reuse
// pooled messages, so a fault allocates nothing.
func TestWarmRemoteFaultAllocatesNothing(t *testing.T) {
	k := testKernel(2, TrackingOff)
	o := k.Reg.Alloc(k.Reg.DefineClass("X", 64, 0), 0)
	var allocs float64
	th := k.SpawnThread(1, "t1", func(th *Thread) {
		th.Read(o)
		fault := func() {
			th.node.copyAt(o.ID).valid = false
			th.Read(o)
		}
		// Warm the scheduler too: each fault lands in a later ring
		// bucket, and a bucket's first event allocates its heap.
		for i := 0; i < 1000; i++ {
			fault()
		}
		allocs = testing.AllocsPerRun(100, fault)
	})
	k.Run()
	if got := th.Stats().Faults; got != 1+1000+101 {
		t.Fatalf("faults = %d, want %d", got, 1+1000+101)
	}
	if allocs != 0 {
		t.Fatalf("warm remote fault allocates %v times, want 0", allocs)
	}
}

// TestLockRoundTripAllocatesNothing: a lock acquire and release, one of
// them carrying an OAL record to the master, reuse pooled messages and
// service events and build their part lists on the stack. The OAL path
// allocates nothing either: the payload travels by value in the pooled
// message, and the drained record buffer returns to the kernel once the
// master has ingested it, for the node's next drain to take.
func TestLockRoundTripAllocatesNothing(t *testing.T) {
	k := testKernel(2, TrackingExact)
	cls := k.Reg.DefineClass("X", 64, 0)
	var allocs float64
	k.SpawnThread(1, "t1", func(th *Thread) {
		o := th.Alloc(cls)
		cycle := func() {
			// Lock 1 is managed locally, so its release buffers the
			// interval's record; lock 0 is managed by the master, so its
			// request carries that record.
			th.Acquire(1)
			th.Write(o)
			th.Release(1)
			th.Acquire(0)
			th.Release(0)
		}
		for i := 0; i < 1000; i++ {
			cycle()
		}
		allocs = testing.AllocsPerRun(100, cycle)
	})
	k.Run()
	if got, want := k.Master().IngestedEntries(), int64(1000+101); got != want {
		t.Fatalf("master ingested %d entries, want %d", got, want)
	}
	if allocs != 0 {
		t.Fatalf("lock round trip allocates %v times, want 0", allocs)
	}
}

// pointerFree reports whether a value of typ holds no pointer: only
// booleans and numbers, directly or in arrays and structs.
func pointerFree(typ reflect.Type) bool {
	switch k := typ.Kind(); {
	case k == reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if !pointerFree(typ.Field(i).Type) {
				return false
			}
		}
		return true
	case k == reflect.Array:
		return pointerFree(typ.Elem())
	default:
		return k >= reflect.Bool && k <= reflect.Complex128
	}
}

// TestSideTableEntriesArePointerFree: the per-object entries of the access
// and copy tables hold no pointer, so the collector never scans their
// pages, and each fits in 12 bytes.
func TestSideTableEntriesArePointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[accessEntry](), reflect.TypeFor[copyState]()} {
		if !pointerFree(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
		if typ.Size() > 12 {
			t.Errorf("%v is %d bytes, want at most 12", typ, typ.Size())
		}
	}
}

// TestWriteTotalSaturatesAtObjectSize: writes that add up to more than
// the object in one interval, one of them past the int32 range, still
// ship exactly the object's bytes plus the 8-byte diff header; a partial
// write in the next interval ships its own bytes.
func TestWriteTotalSaturatesAtObjectSize(t *testing.T) {
	k := testKernel(2, TrackingOff)
	arr := k.Reg.AllocArray(k.Reg.DefineArrayClass("arr", 8), 16, 0) // 128 bytes
	k.SpawnThread(1, "writer", func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.WriteElems(arr, 10) // 240 bytes in all
		}
		th.WriteElems(arr, math.MaxInt32)
		th.Barrier(1, 1)
		th.WriteElems(arr, 2)
	})
	k.Run()
	st := k.Stats()
	if want := int64(128 + 8 + 2*8 + 8); st.DiffMessages != 2 || st.DiffBytes != want {
		t.Fatalf("%d diff messages of %d bytes, want 2 of %d", st.DiffMessages, st.DiffBytes, want)
	}
}

// mustPanic runs fn and fails unless it panics with a message holding want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if got := fmt.Sprint(recover()); !strings.Contains(got, want) {
			t.Errorf("panic %q, want one naming %q", got, want)
		}
	}()
	fn()
}

// TestThreadIntervalStopsAtInt32: the interval count, which stamps the
// access entries, opens its last interval at the int32 limit and then
// panics instead of wrapping.
func TestThreadIntervalStopsAtInt32(t *testing.T) {
	k := testKernel(1, TrackingOff)
	th := k.SpawnThread(0, "t0", func(*Thread) {})
	th.interval = math.MaxInt32 - 1
	th.openInterval()
	th.closeInterval()
	if got := th.interval; got != math.MaxInt32 {
		t.Fatalf("interval = %d, want %d", got, math.MaxInt32)
	}
	mustPanic(t, "thread interval count", th.openInterval)
}

// TestNodeEpochStopsAtInt32: the node's sync epoch, which stamps the copy
// headers, reaches the int32 limit and then panics instead of wrapping.
func TestNodeEpochStopsAtInt32(t *testing.T) {
	n := testKernel(1, TrackingOff).Node(0)
	n.epoch = math.MaxInt32 - 1
	n.advanceEpoch()
	if got := n.epoch; got != math.MaxInt32 {
		t.Fatalf("epoch = %d, want %d", got, math.MaxInt32)
	}
	mustPanic(t, "node sync epoch", n.advanceEpoch)
}

// TestHomeVersionStopsAtInt32: an object's home version, which copy
// headers store, reaches the int32 limit and then panics instead of
// wrapping.
func TestHomeVersionStopsAtInt32(t *testing.T) {
	k := testKernel(1, TrackingOff)
	obj := k.Reg.Alloc(k.Reg.DefineClass("X", 64, 0), 0)
	*k.versions.At(obj.ID) = math.MaxInt32 - 1
	k.bumpVersion(obj.ID)
	if got := k.version(obj.ID); got != math.MaxInt32 {
		t.Fatalf("version = %d, want %d", got, math.MaxInt32)
	}
	mustPanic(t, "object version", func() { k.bumpVersion(obj.ID) })
}

// TestFreshObjectsCostFewBytes: one thread touching 10,000 fresh objects
// allocates at most 70 bytes per object. Measured: 60.5 with 12-byte
// access and copy entries paged by value, of which the growth of the
// interval's touched list is about 35; 85.1 with 24-byte entries; 139.2
// with copy headers in an arena behind a doubling pointer index and access
// entries that point at them.
func TestFreshObjectsCostFewBytes(t *testing.T) {
	const objs = 10000
	k := testKernel(1, TrackingOff)
	cls := k.Reg.DefineClass("X", 64, 0)
	for i := 0; i < objs; i++ {
		k.Reg.Alloc(cls, 0)
	}
	var perObj float64
	k.SpawnThread(0, "t0", func(th *Thread) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for id := heap.ObjectID(1); id <= objs; id++ {
			th.Read(k.Reg.Object(id))
		}
		runtime.ReadMemStats(&after)
		perObj = float64(after.TotalAlloc-before.TotalAlloc) / objs
	})
	k.Run()
	if n := k.Node(0).numCopies; n != objs {
		t.Fatalf("copies = %d, want %d", n, objs)
	}
	if perObj > 70 {
		t.Fatalf("touching a fresh object allocates %.1f bytes, want at most 70", perObj)
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
