package migration

import (
	"testing"

	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/stack"
	"jessica2/internal/sticky"
)

func kernel2() *gos.Kernel {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 2
	return gos.NewKernel(cfg)
}

func TestContextBytesScalesWithStack(t *testing.T) {
	k := kernel2()
	e := NewEngine(k)
	var shallow, deep int
	k.SpawnThread(0, "t", func(th *gos.Thread) {
		m := &stack.Method{Name: "f"}
		th.Stack.Push(m, 2)
		shallow = e.ContextBytes(th)
		for i := 0; i < 10; i++ {
			th.Stack.Push(m, 4)
		}
		deep = e.ContextBytes(th)
	})
	k.Run()
	if deep <= shallow {
		t.Fatalf("deep context %d not bigger than shallow %d", deep, shallow)
	}
	want := shallow + 10*(frameBytes+4*slotBytes)
	if deep != want {
		t.Fatalf("deep = %d, want %d", deep, want)
	}
}

func TestMigrateColdPaysFaults(t *testing.T) {
	k := kernel2()
	e := NewEngine(k)
	cls := k.Reg.DefineClass("Rec", 128, 0)
	var post int64
	k.SpawnThread(0, "t", func(th *gos.Thread) {
		var objs []*heap.Object
		for i := 0; i < 20; i++ {
			o := th.Alloc(cls)
			th.Write(o)
			objs = append(objs, o)
		}
		out := e.MigrateSelf(th, 1, nil)
		if out.To != 1 || out.PrefetchObjs != 0 {
			t.Errorf("bad outcome: %+v", out)
		}
		before := th.Stats().Faults
		for _, o := range objs {
			th.Read(o)
		}
		post = th.Stats().Faults - before
	})
	k.Run()
	if post != 20 {
		t.Fatalf("post-migration faults = %d, want 20", post)
	}
	if len(e.History) != 1 {
		t.Fatal("history not recorded")
	}
}

func TestMigrateWithPrefetchAvoidsFaults(t *testing.T) {
	k := kernel2()
	e := NewEngine(k)
	cls := k.Reg.DefineClass("Rec", 128, 1)
	cls.SetGap(1)
	var post int64
	var out Outcome
	k.SpawnThread(0, "t", func(th *gos.Thread) {
		var objs []*heap.Object
		var prev *heap.Object
		for i := 0; i < 20; i++ {
			o := th.Alloc(cls)
			th.Write(o)
			if prev != nil {
				prev.Refs[0] = o
			}
			objs = append(objs, o)
			prev = o
		}
		res := sticky.Resolve(
			[]stack.InvariantRef{{Obj: objs[0]}},
			sticky.Footprint{"Rec": 20 * 128},
			sticky.DefaultResolverConfig())
		out = e.MigrateSelf(th, 1, res)
		before := th.Stats().Faults
		for _, o := range objs {
			th.Read(o)
		}
		post = th.Stats().Faults - before
	})
	k.Run()
	if post != 0 {
		t.Fatalf("post-migration faults = %d with prefetch, want 0", post)
	}
	if out.PrefetchObjs != 20 || out.PrefetchBytes != 20*128 {
		t.Fatalf("prefetch accounting: %+v", out)
	}
	if out.TransferTime <= 0 {
		t.Fatal("no transfer time")
	}
}

func TestPrefetchTransferCostsMore(t *testing.T) {
	run := func(prefetch bool) Outcome {
		k := kernel2()
		e := NewEngine(k)
		cls := k.Reg.DefineClass("Rec", 4096, 1)
		cls.SetGap(1)
		var out Outcome
		k.SpawnThread(0, "t", func(th *gos.Thread) {
			var objs []*heap.Object
			var prev *heap.Object
			for i := 0; i < 10; i++ {
				o := th.Alloc(cls)
				th.Write(o)
				if prev != nil {
					prev.Refs[0] = o
				}
				objs = append(objs, o)
				prev = o
			}
			var res *sticky.Resolution
			if prefetch {
				res = sticky.Resolve([]stack.InvariantRef{{Obj: objs[0]}},
					sticky.Footprint{"Rec": 10 * 4096}, sticky.DefaultResolverConfig())
			}
			out = e.MigrateSelf(th, 1, res)
		})
		k.Run()
		return out
	}
	cold := run(false)
	hot := run(true)
	if hot.TransferTime <= cold.TransferTime {
		t.Fatalf("prefetch transfer (%v) should exceed cold (%v)",
			hot.TransferTime, cold.TransferTime)
	}
}

func TestMigrationChargesResolutionCost(t *testing.T) {
	k := kernel2()
	e := NewEngine(k)
	cls := k.Reg.DefineClass("Rec", 64, 1)
	cls.SetGap(1)
	k.SpawnThread(0, "t", func(th *gos.Thread) {
		o := th.Alloc(cls)
		th.Write(o)
		res := sticky.Resolve([]stack.InvariantRef{{Obj: o}},
			sticky.Footprint{"Rec": 64}, sticky.DefaultResolverConfig())
		if res.Cost <= 0 {
			t.Error("resolution cost missing")
		}
		out := e.MigrateSelf(th, 1, res)
		if out.ResolutionCost != res.Cost {
			t.Error("resolution cost not recorded in outcome")
		}
	})
	k.Run()
}
