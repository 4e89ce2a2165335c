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

// BarnesHut is the hierarchical N-body simulation: an irregular sharing
// pattern with locality (invisible to page-based trackers), fine-grained
// object sharing (each body under 100 bytes) and moderate
// compute-intensiveness. Bodies form two galaxies separated by GalaxyDist;
// each thread owns a contiguous chunk of the body array, so threads of the
// same galaxy correlate strongly — the Fig. 1 block structure.
type BarnesHut struct {
	// NBodies and Rounds set the problem (paper: 4K bodies, 5 rounds).
	NBodies, Rounds int
	// Theta is the opening angle of the multipole acceptance test.
	Theta float64
	// GalaxyDist separates the two galaxy centers (paper: 7.0).
	GalaxyDist float64
	// LeafCap is the max bodies per octree leaf.
	LeafCap int
	// VisitCost is the virtual CPU charge per tree-node visit or body
	// interaction during force computation (calibrated to land a
	// single-thread 4K×5 run near the paper's ≈94 s Kaffe baseline).
	VisitCost sim.Time
	// InsertCost is the per-level charge during tree insertion.
	InsertCost sim.Time

	bodies []*bhBody
	roots  []*bhCell // one tree per round, built cooperatively
	// cells and lists are the unused tails of the run's current cell and
	// leaf-list chunks. A chunk never grows in place, so every *bhCell and
	// every leaf list cut from one stays valid for the run.
	cells []bhCell
	lists []*bhBody
	// VisitsPerRound records thread 0's traversal visits (calibration).
	VisitsPerRound []int64
}

// NewBarnesHut returns the paper-scale configuration.
func NewBarnesHut() *BarnesHut {
	return &BarnesHut{
		NBodies: 4096, Rounds: 5, Theta: 0.6, GalaxyDist: 7.0, LeafCap: 8,
		VisitCost:  5200 * sim.Nanosecond,
		InsertCost: 2 * sim.Microsecond,
	}
}

// bhBody mirrors one Body object with its numeric state.
type bhBody struct {
	obj           *heap.Object // Body
	pos, vel, acc *heap.Object // Vect3 children
	x, y, z       float64
	vx, vy, vz    float64
	ax, ay, az    float64
	mass          float64
}

// bhCell is one octree node (internal Cell or Leaf).
type bhCell struct {
	obj              *heap.Object // Cell or Leaf object
	leaf             bool
	parent           *bhCell
	octIdx           int
	children         [8]*bhCell
	bodies           []*bhBody
	arr              *heap.Object // Leaf's Body[] element array
	cx, cy, cz, half float64
	mx, my, mz, mass float64
}

// Arena chunk sizes: cells per cell chunk and body pointers per leaf-list
// chunk, one list per cell at the default LeafCap. A 1,024-body, 5-round
// run builds about 2,750 cells, each created as a leaf: eleven chunks of
// each, the last one partly used.
const (
	bhCellChunk = 256
	bhListChunk = bhCellChunk * 9
)

// newCell returns c's copy in the run's cell arena.
func (b *BarnesHut) newCell(c bhCell) *bhCell {
	if len(b.cells) == 0 {
		b.cells = make([]bhCell, bhCellChunk)
	}
	p := &b.cells[0]
	b.cells = b.cells[1:]
	*p = c
	return p
}

// newList returns an empty leaf body list of capacity LeafCap+1, cut from
// the run's list arena with a full slice expression: a leaf fills it
// without reallocating, and only a leaf past the depth cut-off appends
// beyond it, into a list of its own.
func (b *BarnesHut) newList() []*bhBody {
	n := b.LeafCap + 1
	if len(b.lists) < n {
		b.lists = make([]*bhBody, max(bhListChunk, n))
	}
	l := b.lists[:0:n]
	b.lists = b.lists[n:]
	return l
}

// Name implements Workload.
func (b *BarnesHut) Name() string { return "Barnes-Hut" }

// Characteristics implements Workload (Table I row).
func (b *BarnesHut) Characteristics() Characteristics {
	return Characteristics{
		Name:        "Barnes-Hut",
		DataSet:     fmt.Sprintf("%dK bodies", b.NBodies/1024),
		Rounds:      b.Rounds,
		Granularity: "Fine",
		ObjectSize:  "each body less than 100 bytes",
	}
}

// bhClasses bundles the registered classes (the Table IV roster).
type bhClasses struct {
	body, vect3, leaf, cell, bodyArr *heap.Class
}

func (b *BarnesHut) classes(k *gos.Kernel) bhClasses {
	reg := k.Reg
	cls := func(name string, def func() *heap.Class) *heap.Class {
		if c := reg.Class(name); c != nil {
			return c
		}
		return def()
	}
	return bhClasses{
		body:    cls("Body", func() *heap.Class { return reg.DefineClass("Body", 56, 3) }),
		vect3:   cls("Vect3", func() *heap.Class { return reg.DefineClass("Vect3", 32, 0) }),
		leaf:    cls("Leaf", func() *heap.Class { return reg.DefineClass("Leaf", 64, 1) }),
		cell:    cls("Cell", func() *heap.Class { return reg.DefineClass("Cell", 88, 8) }),
		bodyArr: cls("Body[]", func() *heap.Class { return reg.DefineArrayClass("Body[]", 4) }),
	}
}

const bhTreeLock = 1

// Launch implements Workload.
func (b *BarnesHut) Launch(k *gos.Kernel, p Params) {
	if b.LeafCap <= 0 {
		b.LeafCap = 8
	}
	cs := b.classes(k)
	placement := p.placement(k.NumNodes())
	parties := barrierParties(p)
	b.bodies = make([]*bhBody, b.NBodies)
	b.roots = make([]*bhCell, b.Rounds)
	b.cells, b.lists = nil, nil
	b.VisitsPerRound = nil

	var globalArr *heap.Object

	mMain := &stack.Method{Name: "BarnesHut.run"}
	mBuild := &stack.Method{Name: "BarnesHut.buildTree"}
	mForces := &stack.Method{Name: "BarnesHut.computeForces"}
	mWalk := &stack.Method{Name: "BarnesHut.walk"}
	mUpdate := &stack.Method{Name: "BarnesHut.advance"}

	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		lo, hi := blockRange(b.NBodies, p.Threads, tid)
		rng := xrand.New(p.Seed).Derive(uint64(tid) + 101)
		k.SpawnThread(placement[tid], fmt.Sprintf("bh-%d", tid), func(t *gos.Thread) {
			main := t.Stack.Push(mMain, 4)
			if tid == 0 {
				globalArr = t.AllocArray(cs.bodyArr, b.NBodies)
				globalArr.Refs = make([]*heap.Object, b.NBodies)
				t.WriteElems(globalArr, b.NBodies)
			}
			// Init: each thread creates its chunk of bodies, so homes
			// distribute per the first-creator rule. Galaxy membership is
			// by array half.
			owned := make([]bhBody, hi-lo)
			for i := lo; i < hi; i++ {
				bd := &owned[i-lo]
				*bd = bhBody{
					obj:  t.Alloc(cs.body),
					pos:  t.Alloc(cs.vect3),
					vel:  t.Alloc(cs.vect3),
					acc:  t.Alloc(cs.vect3),
					mass: 1.0 / float64(b.NBodies),
				}
				bd.obj.Refs[0], bd.obj.Refs[1], bd.obj.Refs[2] = bd.pos, bd.vel, bd.acc
				gx := -b.GalaxyDist / 2
				if i >= b.NBodies/2 {
					gx = b.GalaxyDist / 2
				}
				for {
					x, y, z := rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1
					if x*x+y*y+z*z <= 1 {
						bd.x, bd.y, bd.z = gx+x, y, z
						break
					}
				}
				bd.vx = (rng.Float64() - 0.5) * 0.05
				bd.vy = (rng.Float64() - 0.5) * 0.05
				bd.vz = (rng.Float64() - 0.5) * 0.05
				t.Write(bd.obj)
				t.Write(bd.pos)
				t.Write(bd.vel)
				b.bodies[i] = bd
			}
			main.SetRef(1, b.bodies[lo].obj)
			t.Barrier(0, parties)
			if tid == 0 {
				for i, bd := range b.bodies {
					globalArr.Refs[i] = bd.obj
				}
			}
			main.SetRef(0, globalArr)

			dt := 0.025
			for round := 0; round < b.Rounds; round++ {
				// --- tree build: each thread inserts its chunk under the
				// global tree lock (coarse-grained parallel build).
				bf := t.Stack.Push(mBuild, 2)
				t.Acquire(bhTreeLock)
				if b.roots[round] == nil {
					root := b.newCell(bhCell{obj: t.Alloc(cs.cell), half: b.GalaxyDist/2 + 4})
					t.Write(root.obj)
					b.roots[round] = root
				}
				root := b.roots[round]
				bf.SetRef(0, root.obj)
				for i := lo; i < hi; i++ {
					bd := b.bodies[i]
					t.Read(bd.obj)
					t.Read(bd.pos)
					b.insert(t, root, bd, cs)
				}
				t.Release(bhTreeLock)
				t.Barrier(0, parties)
				t.Stack.Pop()
				root = b.roots[round]

				// --- centers of mass: thread 0 summarizes the tree.
				if tid == 0 {
					b.summarize(t, root)
				}
				t.Barrier(0, parties)

				// --- force computation over the owned chunk.
				ff := t.Stack.Push(mForces, 3)
				ff.SetRef(0, root.obj)
				ff.SetRef(1, globalArr)
				t.Read(globalArr)
				var visits int64
				for i := lo; i < hi; i++ {
					bd := b.bodies[i]
					t.Read(bd.obj)
					t.Read(bd.pos)
					bd.ax, bd.ay, bd.az = 0, 0, 0
					visits += b.walkForce(t, root, bd, mWalk)
					t.Write(bd.acc)
				}
				if tid == 0 {
					b.VisitsPerRound = append(b.VisitsPerRound, visits)
				}
				// Barrier inside the phase method: the forces frame (tree
				// root + body array refs) is live at the interval close.
				t.Barrier(0, parties)
				t.Stack.Pop()

				// --- advance positions (leapfrog).
				uf := t.Stack.Push(mUpdate, 1)
				uf.SetRef(0, b.bodies[lo].obj)
				for i := lo; i < hi; i++ {
					bd := b.bodies[i]
					bd.vx += bd.ax * dt
					bd.vy += bd.ay * dt
					bd.vz += bd.az * dt
					bd.x += bd.vx * dt
					bd.y += bd.vy * dt
					bd.z += bd.vz * dt
					t.Write(bd.pos)
					t.Write(bd.vel)
					t.Compute(200 * sim.Nanosecond)
				}
				t.Barrier(0, parties)
				t.Stack.Pop()
			}
			t.Stack.Pop()
		})
	}
}

// insert adds a body to the octree (called with the tree lock held).
func (b *BarnesHut) insert(t *gos.Thread, root *bhCell, bd *bhBody, cs bhClasses) {
	c := root
	depth := 0
	t.Read(c.obj)
	for {
		t.Charge(b.InsertCost)
		if c.leaf {
			c.bodies = append(c.bodies, bd)
			t.WriteElems(c.arr, 1)
			if len(c.bodies) > b.LeafCap && depth < 40 {
				b.split(t, c, cs, depth)
			}
			return
		}
		oct := octant(c, bd)
		child := c.children[oct]
		if child == nil {
			child = b.newLeaf(t, c, oct, cs)
		}
		t.Read(child.obj)
		c = child
		depth++
	}
}

// newLeaf creates a leaf child in the given octant of internal cell c.
func (b *BarnesHut) newLeaf(t *gos.Thread, c *bhCell, oct int, cs bhClasses) *bhCell {
	h := c.half / 2
	child := b.newCell(bhCell{
		obj:    t.Alloc(cs.leaf),
		leaf:   true,
		parent: c,
		octIdx: oct,
		bodies: b.newList(),
		half:   h,
		cx:     c.cx + h*octSign(oct, 0),
		cy:     c.cy + h*octSign(oct, 1),
		cz:     c.cz + h*octSign(oct, 2),
	})
	child.arr = t.AllocArray(cs.bodyArr, b.LeafCap)
	child.obj.Refs[0] = child.arr
	c.children[oct] = child
	c.obj.Refs[oct] = child.obj
	t.Write(c.obj)
	t.Write(child.obj)
	return child
}

// split promotes an over-full leaf into an internal cell and redistributes
// its bodies one level down.
func (b *BarnesHut) split(t *gos.Thread, c *bhCell, cs bhClasses, depth int) {
	bodies := c.bodies
	c.bodies = nil
	c.leaf = false
	c.arr = nil
	old := c.obj
	c.obj = t.Alloc(cs.cell)
	if c.parent != nil {
		c.parent.obj.Refs[c.octIdx] = c.obj
		t.Write(c.parent.obj)
	}
	t.Read(old)
	t.Write(c.obj)
	for _, bd := range bodies {
		oct := octant(c, bd)
		child := c.children[oct]
		if child == nil {
			child = b.newLeaf(t, c, oct, cs)
		}
		child.bodies = append(child.bodies, bd)
		t.WriteElems(child.arr, 1)
		t.Charge(b.InsertCost)
		if len(child.bodies) > b.LeafCap && depth < 40 {
			b.split(t, child, cs, depth+1)
		}
	}
}

// octant picks the child octant for a body's position.
func octant(c *bhCell, bd *bhBody) int {
	oct := 0
	if bd.x >= c.cx {
		oct |= 1
	}
	if bd.y >= c.cy {
		oct |= 2
	}
	if bd.z >= c.cz {
		oct |= 4
	}
	return oct
}

func octSign(oct, axis int) float64 {
	if oct&(1<<axis) != 0 {
		return 1
	}
	return -1
}

// summarize computes centers of mass bottom-up.
func (b *BarnesHut) summarize(t *gos.Thread, c *bhCell) (mass, mx, my, mz float64) {
	t.Read(c.obj)
	t.Charge(400 * sim.Nanosecond)
	if c.leaf {
		for _, bd := range c.bodies {
			t.Read(bd.obj)
			t.Read(bd.pos)
			mass += bd.mass
			mx += bd.mass * bd.x
			my += bd.mass * bd.y
			mz += bd.mass * bd.z
		}
	} else {
		for _, ch := range c.children {
			if ch == nil {
				continue
			}
			m, x, y, z := b.summarize(t, ch)
			mass += m
			mx += x
			my += y
			mz += z
		}
	}
	c.mass = mass
	if mass > 0 {
		c.mx, c.my, c.mz = mx/mass, my/mass, mz/mass
	}
	t.Write(c.obj)
	return mass, mx, my, mz
}

// walkForce traverses the tree accumulating the body's acceleration,
// returning the number of node visits. Recursion pushes a transient shadow
// frame per level — the stack shape the paper's sampler contends with.
func (b *BarnesHut) walkForce(t *gos.Thread, c *bhCell, bd *bhBody, m *stack.Method) int64 {
	if c == nil || c.mass == 0 {
		return 0
	}
	var visits int64 = 1
	f := t.Stack.Push(m, 2)
	f.SetRef(0, c.obj)
	t.Read(c.obj)
	t.Charge(b.VisitCost)

	if c.leaf {
		if len(c.bodies) > 0 {
			t.Read(c.arr)
		}
		for _, ob := range c.bodies {
			if ob == bd {
				continue
			}
			t.Read(ob.obj)
			t.Read(ob.pos)
			t.Charge(b.VisitCost)
			visits++
			bd.applyGravity(ob.x, ob.y, ob.z, ob.mass)
		}
		t.Stack.Pop()
		return visits
	}
	dx, dy, dz := c.mx-bd.x, c.my-bd.y, c.mz-bd.z
	dist2 := dx*dx + dy*dy + dz*dz
	size := c.half * 2
	if dist2 > 0 && size*size/dist2 < b.Theta*b.Theta {
		// Far enough: use the aggregate center of mass.
		bd.applyGravity(c.mx, c.my, c.mz, c.mass)
		t.Stack.Pop()
		return visits
	}
	for _, ch := range c.children {
		if ch != nil {
			visits += b.walkForce(t, ch, bd, m)
		}
	}
	t.Stack.Pop()
	return visits
}

// applyGravity accumulates a softened gravitational pull on the body.
func (bd *bhBody) applyGravity(x, y, z, mass float64) {
	const eps2 = 0.0025
	dx, dy, dz := x-bd.x, y-bd.y, z-bd.z
	d2 := dx*dx + dy*dy + dz*dz + eps2
	inv := 1 / (d2 * math.Sqrt(d2))
	bd.ax += mass * dx * inv
	bd.ay += mass * dy * inv
	bd.az += mass * dz * inv
}
