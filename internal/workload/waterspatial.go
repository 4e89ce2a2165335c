package workload

import (
	"fmt"
	"math"

	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sim"
	"jessica2/internal/stack"
	"jessica2/internal/xrand"
)

// WaterSpatial is the molecular dynamics application: groups of water
// molecules interacting within a cutoff radius over a 3-D spatial box
// decomposition. Sharing is near-neighbour in 3-D with medium granularity
// (each molecule's state array is about 512 bytes), computation is
// intensive, and the load distribution evolves as molecules drift between
// boxes — which is what makes its sticky sets move.
type WaterSpatial struct {
	// NMol and Rounds set the problem (paper: 512 molecules, 5 rounds).
	NMol, Rounds int
	// BoxesPerSide sets the 3-D box grid (4 → 64 boxes).
	BoxesPerSide int
	// BoxCap bounds molecules per box list.
	BoxCap int
	// PairCost is the virtual CPU charge per molecule pair interaction
	// (the full O–O, O–H, H–H site-site force loop under Kaffe;
	// calibrated to land a single-thread 512×5 run near the paper's
	// ≈59 s baseline).
	PairCost sim.Time

	mols  []*wsMol
	boxes []*wsBox
}

// NewWaterSpatial returns the paper-scale configuration.
func NewWaterSpatial() *WaterSpatial {
	return &WaterSpatial{
		NMol: 512, Rounds: 5, BoxesPerSide: 4, BoxCap: 64,
		PairCost: 190 * sim.Microsecond,
	}
}

// wsMol mirrors one molecule: a 64-double state array (~512 bytes).
type wsMol struct {
	id         int
	arr        *heap.Object // double[] state
	x, y, z    float64
	fx, fy, fz float64
	box        int
}

// wsBox is one spatial cell with its membership list object.
type wsBox struct {
	idx  int
	list *heap.Object // Mol[] membership array
	obj  *heap.Object // Box descriptor
	mols []*wsMol
}

// Name implements Workload.
func (w *WaterSpatial) Name() string { return "Water-Spatial" }

// Characteristics implements Workload (Table I row).
func (w *WaterSpatial) Characteristics() Characteristics {
	return Characteristics{
		Name:        "Water-Spatial",
		DataSet:     fmt.Sprintf("%d molecules", w.NMol),
		Rounds:      w.Rounds,
		Granularity: "Medium",
		ObjectSize:  "each molecule about 512 bytes",
	}
}

// wsLockBase offsets box lock ids away from other workload locks.
const wsLockBase = 1000

// Launch implements Workload.
func (w *WaterSpatial) Launch(k *gos.Kernel, p Params) {
	reg := k.Reg
	cls := func(name string, def func() *heap.Class) *heap.Class {
		if c := reg.Class(name); c != nil {
			return c
		}
		return def()
	}
	molC := cls("double[]", func() *heap.Class { return reg.DefineArrayClass("double[]", 8) })
	boxC := cls("Box", func() *heap.Class { return reg.DefineClass("Box", 48, 1) })
	listC := cls("Mol[]", func() *heap.Class { return reg.DefineArrayClass("Mol[]", 4) })

	nb := w.BoxesPerSide
	nBoxes := nb * nb * nb
	w.boxes = make([]*wsBox, nBoxes)
	w.mols = make([]*wsMol, w.NMol)
	placement := p.placement(k.NumNodes())
	parties := barrierParties(p)
	side := 1.0 // box edge length; domain is [0, nb)^3 box units

	boxIndex := func(x, y, z float64) int {
		bx := clampInt(int(x/side), 0, nb-1)
		by := clampInt(int(y/side), 0, nb-1)
		bz := clampInt(int(z/side), 0, nb-1)
		return (bx*nb+by)*nb + bz
	}

	mMain := &stack.Method{Name: "Water.run"}
	mForces := &stack.Method{Name: "Water.interBoxForces"}
	mBoxPair := &stack.Method{Name: "Water.boxPair"}
	mUpdate := &stack.Method{Name: "Water.advance"}

	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		boxLo, boxHi := blockRange(nBoxes, p.Threads, tid)
		molLo, molHi := blockRange(w.NMol, p.Threads, tid)
		rng := xrand.New(p.Seed).Derive(uint64(tid) + 977)
		k.SpawnThread(placement[tid], fmt.Sprintf("ws-%d", tid), func(t *gos.Thread) {
			main := t.Stack.Push(mMain, 4)
			// Init: allocate owned boxes and molecules; molecules start
			// uniformly placed inside the thread's own box range so homes
			// and box lists line up initially.
			for bi := boxLo; bi < boxHi; bi++ {
				bx := &wsBox{
					idx:  bi,
					obj:  t.Alloc(boxC),
					list: t.AllocArray(listC, w.BoxCap),
				}
				bx.obj.Refs[0] = bx.list
				bx.list.Refs = make([]*heap.Object, 0, w.BoxCap)
				t.Write(bx.obj)
				w.boxes[bi] = bx
			}
			t.Barrier(0, parties)

			for i := molLo; i < molHi; i++ {
				// Place into a random owned box.
				bi := boxLo + rng.Intn(boxHi-boxLo)
				bx3 := bi / (nb * nb)
				by3 := (bi / nb) % nb
				bz3 := bi % nb
				m := &wsMol{
					id:  i,
					arr: t.AllocArray(molC, 64), // 512 bytes
					x:   (float64(bx3) + rng.Float64()) * side,
					y:   (float64(by3) + rng.Float64()) * side,
					z:   (float64(bz3) + rng.Float64()) * side,
				}
				m.box = bi
				t.WriteElems(m.arr, 64)
				w.mols[i] = m
				bx := w.boxes[bi]
				bx.mols = append(bx.mols, m)
				bx.list.Refs = append(bx.list.Refs, m.arr)
				t.WriteElems(bx.list, 1)
			}
			if molLo < molHi {
				main.SetRef(0, w.mols[molLo].arr)
			}
			if boxLo < boxHi {
				main.SetRef(1, w.boxes[boxLo].obj)
				main.SetRef(2, w.boxes[boxLo].list)
			}
			t.Barrier(0, parties)

			for round := 0; round < w.Rounds; round++ {
				// --- force computation: owned boxes against their 27-box
				// neighbourhoods.
				ff := t.Stack.Push(mForces, 2)
				if boxLo < boxHi {
					ff.SetRef(0, w.boxes[boxLo].list)
				}
				for bi := boxLo; bi < boxHi; bi++ {
					home := w.boxes[bi]
					t.Read(home.obj)
					t.Read(home.list)
					for _, nbIdx := range neighbors27(bi, nb) {
						other := w.boxes[nbIdx]
						pf := t.Stack.Push(mBoxPair, 2)
						pf.SetRef(0, home.list)
						pf.SetRef(1, other.list)
						t.Read(other.obj)
						t.Read(other.list)
						for _, m := range home.mols {
							t.Read(m.arr)
							for _, o := range other.mols {
								if o.id <= m.id {
									continue // each pair once
								}
								t.Read(o.arr)
								w.interact(m, o)
								t.Charge(w.PairCost)
							}
							// Accumulated forces land in the force section
							// of the molecule state array.
							t.WriteElems(m.arr, 16)
						}
						t.Stack.Pop()
					}
				}
				// Barrier inside the phase method (box-list refs live).
				t.Barrier(0, parties)
				t.Stack.Pop()

				// --- advance: integrate positions; molecules crossing box
				// boundaries move between membership lists under the box
				// locks (the evolving-distribution behaviour).
				uf := t.Stack.Push(mUpdate, 2)
				if molLo < molHi {
					uf.SetRef(0, w.mols[molLo].arr)
				}
				for i := molLo; i < molHi; i++ {
					m := w.mols[i]
					dtv := 0.08
					m.x = wrap(m.x+(rng.Float64()-0.5+m.fx*0.01)*dtv, float64(nb)*side)
					m.y = wrap(m.y+(rng.Float64()-0.5+m.fy*0.01)*dtv, float64(nb)*side)
					m.z = wrap(m.z+(rng.Float64()-0.5+m.fz*0.01)*dtv, float64(nb)*side)
					m.fx, m.fy, m.fz = 0, 0, 0
					t.WriteElems(m.arr, 24)
					t.Compute(2 * sim.Microsecond)
					newBox := boxIndex(m.x, m.y, m.z)
					if newBox != m.box {
						w.moveMol(t, m, newBox)
					}
				}
				t.Barrier(0, parties)
				t.Stack.Pop()
			}
			t.Stack.Pop()
		})
	}
}

// moveMol migrates a molecule between box lists under the box locks.
func (w *WaterSpatial) moveMol(t *gos.Thread, m *wsMol, newBox int) {
	old := w.boxes[m.box]
	t.Acquire(wsLockBase + old.idx)
	for j, mm := range old.mols {
		if mm == m {
			old.mols = append(old.mols[:j], old.mols[j+1:]...)
			break
		}
	}
	rebuildListRefs(old)
	t.WriteElems(old.list, 1)
	t.Release(wsLockBase + old.idx)

	nw := w.boxes[newBox]
	t.Acquire(wsLockBase + nw.idx)
	nw.mols = append(nw.mols, m)
	rebuildListRefs(nw)
	t.WriteElems(nw.list, 1)
	t.Release(wsLockBase + nw.idx)
	m.box = newBox
}

func rebuildListRefs(b *wsBox) {
	b.list.Refs = b.list.Refs[:0]
	for _, mm := range b.mols {
		b.list.Refs = append(b.list.Refs, mm.arr)
	}
}

// interact applies a truncated Lennard-Jones-ish pair force.
func (w *WaterSpatial) interact(a, b *wsMol) {
	dx, dy, dz := b.x-a.x, b.y-a.y, b.z-a.z
	d2 := dx*dx + dy*dy + dz*dz
	if d2 > 2.25 || d2 == 0 { // cutoff 1.5 box units
		return
	}
	inv2 := 1 / d2
	inv6 := inv2 * inv2 * inv2
	f := (12*inv6*inv6 - 6*inv6) * inv2 * 1e-3
	if math.IsNaN(f) {
		return
	}
	// Clamp the close-contact singularity so integration stays stable.
	if f > 4 {
		f = 4
	} else if f < -4 {
		f = -4
	}
	a.fx -= f * dx
	a.fy -= f * dy
	a.fz -= f * dz
	b.fx += f * dx
	b.fy += f * dy
	b.fz += f * dz
}

// neighbors27 returns the indices of the 3×3×3 neighbourhood of box bi
// (clipped at the domain walls), including bi itself, in ascending order.
func neighbors27(bi, nb int) []int {
	bx := bi / (nb * nb)
	by := (bi / nb) % nb
	bz := bi % nb
	var out []int
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				x, y, z := bx+dx, by+dy, bz+dz
				if x < 0 || x >= nb || y < 0 || y >= nb || z < 0 || z >= nb {
					continue
				}
				out = append(out, (x*nb+y)*nb+z)
			}
		}
	}
	return out
}

func wrap(v, max float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	v = math.Mod(v, max)
	if v < 0 {
		v += max
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
