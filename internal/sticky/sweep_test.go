package sticky

import (
	"sort"
	"testing"

	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sim"
	"jessica2/internal/xrand"
)

// refFootprinter is the map-and-walk footprinter: per-object counts in a
// map with an armed flag each, re-armed by walking the whole map at every
// sweep, folded in object-ID order at interval close. It charges into cpu
// instead of a thread.
type refFootprinter struct {
	cfg          FootprinterConfig
	counts       map[heap.ObjectID]*refCount
	nextSweep    sim.Time
	footprint    Footprint
	lastInterval Footprint
	tracked      int64
	sweeps       int64
	cpu          sim.Time
}

type refCount struct {
	obj   *heap.Object
	count int
	armed bool
}

func (r *refFootprinter) gap(o *heap.Object) int64 {
	return max(o.Class.Gap(), r.cfg.MinGap)
}

func (r *refFootprinter) access(now sim.Time, o *heap.Object) {
	period := r.cfg.OnPhase + r.cfg.OffPhase
	if !r.cfg.Nonstop && now%period >= r.cfg.OnPhase {
		return
	}
	if now >= r.nextSweep {
		r.sweeps++
		for _, oc := range r.counts {
			if !oc.armed {
				oc.armed = true
				r.cpu += r.cfg.ArmCost
			}
		}
		r.nextSweep = now + r.cfg.RearmPeriod
	}
	if !o.SampledAtGap(r.gap(o)) {
		return
	}
	oc := r.counts[o.ID]
	if oc == nil {
		oc = &refCount{obj: o, armed: true}
		r.counts[o.ID] = oc
	}
	if !oc.armed {
		return
	}
	oc.armed = false
	oc.count++
	r.tracked++
	r.cpu += r.cfg.TrapBase + sim.Time(o.Bytes())*r.cfg.TrapPerKB/1024
}

func (r *refFootprinter) close() {
	ids := make([]heap.ObjectID, 0, len(r.counts))
	for id := range r.counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	raw := make(Footprint)
	for _, id := range ids {
		oc := r.counts[id]
		if oc.count >= r.cfg.MinAccesses {
			g := r.gap(oc.obj)
			raw[oc.obj.Class.Name] += int64(oc.obj.AmortizedBytesAtGap(g)) * g
		}
	}
	r.lastInterval = raw
	a := r.cfg.EWMA
	for c, v := range raw {
		r.footprint[c] = int64(a*float64(v) + (1-a)*float64(r.footprint[c]))
	}
	for c, v := range r.footprint {
		if _, ok := raw[c]; !ok {
			r.footprint[c] = int64((1 - a) * float64(v))
		}
	}
	clear(r.counts)
}

// TestSweepMatchesMapWalk drives a Footprinter and the map-and-walk
// reference through the same seeded stream of accesses, clock steps across
// the on/off duty cycle and interval closes. The O(1) sweep must charge
// what the walk charges, and every reported figure must agree.
func TestSweepMatchesMapWalk(t *testing.T) {
	cfg := FootprinterConfig{
		MinAccesses: 2,
		RearmPeriod: 100 * sim.Microsecond,
		OnPhase:     2 * sim.Millisecond,
		OffPhase:    sim.Millisecond,
		MinGap:      2,
		ArmCost:     80 * sim.Nanosecond,
		TrapBase:    150 * sim.Nanosecond,
		TrapPerKB:   1536 * sim.Nanosecond,
		EWMA:        0.5,
	}
	for seed := uint64(1); seed <= 6; seed++ {
		kcfg := gos.DefaultConfig()
		kcfg.Nodes = 1
		k := gos.NewKernel(kcfg)
		rec := k.Reg.DefineClass("Rec", 128, 0)
		small := k.Reg.DefineClass("Small", 24, 0)
		arr := k.Reg.DefineArrayClass("Arr", 8)
		small.SetGap(4, 3)
		arr.SetGap(8, 7)
		var objs []*heap.Object
		for i := 0; i < 700; i++ { // spans several table pages
			switch i % 3 {
			case 0:
				objs = append(objs, k.Reg.Alloc(rec, 0))
			case 1:
				objs = append(objs, k.Reg.Alloc(small, 0))
			default:
				objs = append(objs, k.Reg.AllocArray(arr, 1+i%5, 0))
			}
		}
		ref := &refFootprinter{cfg: cfg, counts: make(map[heap.ObjectID]*refCount), footprint: make(Footprint)}
		var fp *Footprinter
		var charged sim.Time
		rng := xrand.New(seed)
		th := k.SpawnThread(0, "t", func(th *gos.Thread) {
			for step := 0; step < 20000; step++ {
				switch r := rng.Intn(100); {
				case r < 85:
					o := objs[rng.Intn(len(objs))]
					if rng.Intn(2) == 0 {
						o = objs[rng.Intn(40)] // a hot set that re-traps
					}
					ref.access(th.Kernel().Eng.Now(), o)
					fp.OnAccess(th, o, rng.Intn(4) == 0, false)
				case r < 97:
					th.SleepUntil(th.Now() + sim.Time(rng.Intn(int(400*sim.Microsecond))))
				default:
					ref.close()
					fp.OnIntervalClose(th)
					if got, want := fp.LastInterval(), ref.lastInterval; got.Diff(want) != 0 || len(got) != len(want) {
						t.Errorf("seed %d step %d: LastInterval = %v, want %v", seed, step, got, want)
					}
				}
			}
			th.Now() // flush the footprinter's pending charges
			charged = th.Stats().ComputeTime
		})
		fp = NewFootprinter(th, cfg)
		k.Run()
		if fp.TrackedAccesses != ref.tracked || fp.Sweeps != ref.sweeps {
			t.Errorf("seed %d: tracked %d sweeps %d, want %d and %d", seed, fp.TrackedAccesses, fp.Sweeps, ref.tracked, ref.sweeps)
		}
		if charged != ref.cpu {
			t.Errorf("seed %d: charged %v, want %v", seed, charged, ref.cpu)
		}
		if got := fp.Footprint(); got.Diff(ref.footprint) != 0 {
			t.Errorf("seed %d: Footprint = %v, want %v", seed, got, ref.footprint)
		}
		if ref.sweeps < 100 || ref.tracked < 1000 {
			t.Errorf("seed %d: only %d sweeps and %d traps; the stream is too thin to compare", seed, ref.sweeps, ref.tracked)
		}
	}
}
