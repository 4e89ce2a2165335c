package workload

import (
	"fmt"

	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sim"
	"jessica2/internal/stack"
)

// LU is the SPLASH-2 blocked dense LU factorization kernel: the matrix is
// split into B×B blocks scattered over a 2D thread grid, and every
// elimination step runs three barrier-separated phases (diagonal
// factorization, perimeter update, interior update). The pattern is
// regular and strongly barrier-heavy — 3 barriers per step, nb steps — with
// coarse object granularity (one double[] per block), which makes it the
// scenario engine's best probe for CPU heterogeneity and transient
// slowdowns: one slow node stalls every barrier.
type LU struct {
	// N is the matrix dimension and Block the block size (paper-era
	// SPLASH-2 default: 512×512 with 16×16 blocks).
	N, Block int
	// ElemCost is the virtual CPU charge per element update (one
	// multiply-subtract of the inner daxpy).
	ElemCost sim.Time

	blocks [][]*heap.Object // nb × nb shared blocks
}

// NewLU returns the SPLASH-2 default configuration.
func NewLU() *LU {
	return &LU{N: 512, Block: 16, ElemCost: 90 * sim.Nanosecond}
}

// NewLUSmall returns a quick-run configuration for tests and examples.
func NewLUSmall() *LU {
	return &LU{N: 128, Block: 16, ElemCost: 90 * sim.Nanosecond}
}

// Name implements Workload.
func (l *LU) Name() string { return "LU" }

// Characteristics implements Workload.
func (l *LU) Characteristics() Characteristics {
	return Characteristics{
		Name:        "LU",
		DataSet:     fmt.Sprintf("%dx%d, %dx%d blocks", l.N, l.N, l.Block, l.Block),
		Rounds:      l.nb(),
		Granularity: "Coarse",
		ObjectSize:  fmt.Sprintf("%d-byte blocks", l.Block*l.Block*8),
	}
}

// nb is the block count per dimension.
func (l *LU) nb() int {
	nb := l.N / l.Block
	if nb < 1 {
		nb = 1
	}
	return nb
}

// threadGrid factors the thread count into the most square pr×pc grid with
// pr*pc == threads (SPLASH-2's 2D scatter decomposition).
func threadGrid(threads int) (pr, pc int) {
	pr = 1
	for d := 1; d*d <= threads; d++ {
		if threads%d == 0 {
			pr = d
		}
	}
	return pr, threads / pr
}

// Launch implements Workload.
func (l *LU) Launch(k *gos.Kernel, p Params) {
	if l.Block <= 0 {
		l.Block = 16
	}
	if l.ElemCost <= 0 {
		l.ElemCost = 90 * sim.Nanosecond
	}
	reg := k.Reg
	blockClass := reg.Class("double[]")
	if blockClass == nil {
		blockClass = reg.DefineArrayClass("double[]", 8)
	}
	nb := l.nb()
	elems := l.Block * l.Block
	l.blocks = make([][]*heap.Object, nb)
	for i := range l.blocks {
		l.blocks[i] = make([]*heap.Object, nb)
	}
	placement := p.placement(k.NumNodes())
	parties := barrierParties(p)
	pr, pc := threadGrid(p.Threads)
	owner := func(i, j int) int { return (i%pr)*pc + j%pc }

	mMain := &stack.Method{Name: "LU.run"}
	mStep := &stack.Method{Name: "LU.step"}
	mUpdate := &stack.Method{Name: "LU.updateBlock"}

	// Per-phase per-block element-op counts (the classic flop shares:
	// diagonal ~B³/3, perimeter ~B³/2, interior B³ daxpy+copy).
	diagOps := sim.Time(elems*l.Block) / 3
	perimOps := sim.Time(elems * l.Block / 2)
	innerOps := sim.Time(elems * l.Block)

	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		k.SpawnThread(placement[tid], fmt.Sprintf("lu-%d", tid), func(t *gos.Thread) {
			main := t.Stack.Push(mMain, 2)
			// Init: allocate owned blocks so homes follow the 2D scatter
			// (the first-creator rule places each block on its owner).
			for i := 0; i < nb; i++ {
				for j := 0; j < nb; j++ {
					if owner(i, j) != tid {
						continue
					}
					b := t.AllocArray(blockClass, elems)
					l.blocks[i][j] = b
					t.WriteElems(b, elems)
					t.Compute(sim.Time(elems) * 12 * sim.Nanosecond) // init fill
					if main.Ref(0) == nil {
						main.SetRef(0, b)
					}
				}
			}
			t.Barrier(0, parties)

			for s := 0; s < nb; s++ {
				sf := t.Stack.Push(mStep, 1)
				diag := l.blocks[s][s]
				sf.SetRef(0, diag)

				// Phase 1: the diagonal owner factorizes block (s,s).
				if owner(s, s) == tid {
					t.ReadElems(diag, elems)
					t.WriteElems(diag, elems)
					t.Compute(diagOps * l.ElemCost)
				}
				t.Barrier(0, parties)

				// Phase 2: perimeter row and column blocks divide by the
				// fresh diagonal.
				for q := s + 1; q < nb; q++ {
					if owner(s, q) == tid {
						l.update(t, mUpdate, perimOps, diag, nil, l.blocks[s][q])
					}
					if owner(q, s) == tid {
						l.update(t, mUpdate, perimOps, diag, nil, l.blocks[q][s])
					}
				}
				t.Barrier(0, parties)

				// Phase 3: interior blocks take the rank-B update from
				// their perimeter row/column blocks.
				for i := s + 1; i < nb; i++ {
					for j := s + 1; j < nb; j++ {
						if owner(i, j) != tid {
							continue
						}
						l.update(t, mUpdate, innerOps, l.blocks[i][s], l.blocks[s][j], l.blocks[i][j])
					}
				}
				t.Barrier(0, parties)
				t.Stack.Pop()
			}
			t.Stack.Pop()
		})
	}
}

// update applies one block update: read the operand blocks, rewrite the
// destination, charge ops element operations. The transient frame keeps the
// destination reference visible to the stack profiler.
func (l *LU) update(t *gos.Thread, m *stack.Method, ops sim.Time, a, b, dst *heap.Object) {
	f := t.Stack.Push(m, 2)
	f.SetRef(0, dst)
	if a != nil {
		t.ReadElems(a, a.Len)
		f.SetRef(1, a)
	}
	if b != nil {
		t.ReadElems(b, b.Len)
	}
	t.ReadElems(dst, dst.Len)
	t.WriteElems(dst, dst.Len)
	t.Compute(ops * l.ElemCost)
	t.Stack.Pop()
}
