package pagesim

import (
	"testing"

	"jessica2/internal/gos"
	"jessica2/internal/heap"
)

// run executes a two-thread scenario on one node pair and returns the
// tracker's induced map.
func runScenario(t *testing.T, body func(k *gos.Kernel, cls *heap.Class, done chan<- struct{})) *Tracker {
	t.Helper()
	cfg := gos.DefaultConfig()
	cfg.Nodes = 2
	k := gos.NewKernel(cfg)
	tr := NewTracker(2)
	k.AddObserver(tr)
	cls := k.Reg.DefineClass("small", 64, 0)
	body(k, cls, nil)
	k.Run()
	return tr
}

// TestFalseSharingInduced: two threads touching *different* objects that
// share a page are falsely correlated by the page tracker.
func TestFalseSharingInduced(t *testing.T) {
	tr := runScenario(t, func(k *gos.Kernel, cls *heap.Class, _ chan<- struct{}) {
		var a, b *heap.Object
		k.SpawnThread(0, "t0", func(th *gos.Thread) {
			// Two 64-byte objects, adjacent on the same page of node 0.
			a = th.Alloc(cls)
			b = th.Alloc(cls)
			th.Write(a)
			th.Barrier(1, 2)
			th.Read(a) // t0 touches only a
			th.Barrier(2, 2)
		})
		k.SpawnThread(1, "t1", func(th *gos.Thread) {
			th.Barrier(1, 2)
			th.Read(b) // t1 touches only b
			th.Barrier(2, 2)
		})
	})
	m := tr.Build()
	if m.At(0, 1) == 0 {
		t.Fatal("page tracker missed the false sharing")
	}
	if m.At(0, 1) != heap.PageSize {
		t.Fatalf("induced volume = %v, want one page", m.At(0, 1))
	}
}

// TestNoAliasAcrossPages: objects on different pages do not alias.
func TestNoAliasAcrossPages(t *testing.T) {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 2
	k := gos.NewKernel(cfg)
	tr := NewTracker(2)
	k.AddObserver(tr)
	arr := k.Reg.DefineArrayClass("big", 8)
	var a, b *heap.Object
	k.SpawnThread(0, "t0", func(th *gos.Thread) {
		a = th.AllocArray(arr, 1024) // 8 KB: 2+ pages
		b = th.AllocArray(arr, 1024)
		th.WriteElems(a, 1)
		th.Barrier(1, 2)
		th.Read(a)
		th.Barrier(2, 2)
	})
	k.SpawnThread(1, "t1", func(th *gos.Thread) {
		th.Barrier(1, 2)
		th.Read(b)
		th.Barrier(2, 2)
	})
	k.Run()
	m := tr.Build()
	if m.At(0, 1) != 0 {
		t.Fatalf("distinct multi-page arrays aliased: %v", m.At(0, 1))
	}
}

// TestWriteSpansAllPages: whole-object writes touch the full page span.
func TestWriteSpansAllPages(t *testing.T) {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 1
	k := gos.NewKernel(cfg)
	tr := NewTracker(1)
	k.AddObserver(tr)
	arr := k.Reg.DefineArrayClass("big", 8)
	k.SpawnThread(0, "t0", func(th *gos.Thread) {
		a := th.AllocArray(arr, 2048) // 16 KB = 4 pages
		th.WriteElems(a, 2048)
	})
	k.Run()
	if len(tr.pages) < 4 {
		t.Fatalf("write touched %d pages, want >= 4", len(tr.pages))
	}
}

// TestReadTouchesFirstPageOnly approximates partial traversal of large
// arrays.
func TestReadTouchesFirstPageOnly(t *testing.T) {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 2
	k := gos.NewKernel(cfg)
	tr := NewTracker(2)
	k.AddObserver(tr)
	arr := k.Reg.DefineArrayClass("big", 8)
	var a *heap.Object
	k.SpawnThread(0, "t0", func(th *gos.Thread) {
		a = th.AllocArray(arr, 2048)
		th.WriteElems(a, 1) // minimal dirty
		th.Barrier(1, 2)
		th.Barrier(2, 2)
	})
	k.SpawnThread(1, "t1", func(th *gos.Thread) {
		th.Barrier(1, 2)
		th.Read(a)
		th.Barrier(2, 2)
	})
	k.Run()
	// t0's write dirtied 1 page; t1's read touches the first page: they
	// alias on exactly one page.
	m := tr.Build()
	if m.At(0, 1) != heap.PageSize {
		t.Fatalf("induced = %v, want one page", m.At(0, 1))
	}
}

func TestRepeatAccessCountedOncePerInterval(t *testing.T) {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 1
	k := gos.NewKernel(cfg)
	tr := NewTracker(1)
	k.AddObserver(tr)
	cls := k.Reg.DefineClass("small", 64, 0)
	k.SpawnThread(0, "t0", func(th *gos.Thread) {
		o := th.Alloc(cls)
		for i := 0; i < 50; i++ {
			th.Read(o)
		}
	})
	k.Run()
	if len(tr.pages) != 1 {
		t.Fatalf("pages = %d, want 1", len(tr.pages))
	}
}
