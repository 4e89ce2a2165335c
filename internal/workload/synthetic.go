package workload

import (
	"fmt"

	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sim"
	"jessica2/internal/stack"
	"jessica2/internal/xrand"
)

// SharingPattern selects the synthetic workload's inter-thread structure.
type SharingPattern int

const (
	// PatternUniform makes every thread touch every region equally.
	PatternUniform SharingPattern = iota
	// PatternNeighbor makes thread i share mostly with threads i±1.
	PatternNeighbor
	// PatternBlocks makes two thread groups that never share across the
	// group boundary (a two-galaxy-like block TCM).
	PatternBlocks
	// PatternZipf concentrates accesses on a few hot objects.
	PatternZipf
)

func (sp SharingPattern) String() string {
	switch sp {
	case PatternUniform:
		return "uniform"
	case PatternNeighbor:
		return "neighbor"
	case PatternBlocks:
		return "blocks"
	case PatternZipf:
		return "zipf"
	default:
		return fmt.Sprintf("pattern(%d)", int(sp))
	}
}

// Synthetic is a configurable microbenchmark used by tests, examples and
// ablations: threads repeatedly access objects from per-thread regions
// drawn according to a sharing pattern, with barrier-delimited intervals.
type Synthetic struct {
	// ObjectsPerThread sizes each thread's region.
	ObjectsPerThread int
	// ObjectSize is the instance size of the shared class.
	ObjectSize int
	// Intervals is the number of barrier-delimited rounds.
	Intervals int
	// AccessesPerInterval is the per-thread access count per round.
	AccessesPerInterval int
	// Pattern selects the sharing structure.
	Pattern SharingPattern
	// WriteFraction in [0,1] makes that share of accesses writes.
	WriteFraction float64
	// AccessCost is the per-access compute charge.
	AccessCost sim.Time

	regions [][]*heap.Object
}

// NewSynthetic returns a small default instance.
func NewSynthetic() *Synthetic {
	return &Synthetic{
		ObjectsPerThread:    256,
		ObjectSize:          64,
		Intervals:           8,
		AccessesPerInterval: 2048,
		Pattern:             PatternNeighbor,
		WriteFraction:       0.25,
		AccessCost:          200 * sim.Nanosecond,
	}
}

// Name implements Workload.
func (s *Synthetic) Name() string { return "Synthetic/" + s.Pattern.String() }

// Characteristics implements Workload.
func (s *Synthetic) Characteristics() Characteristics {
	return Characteristics{
		Name:        s.Name(),
		DataSet:     fmt.Sprintf("%d objs/thread x %dB", s.ObjectsPerThread, s.ObjectSize),
		Rounds:      s.Intervals,
		Granularity: "Fine",
		ObjectSize:  fmt.Sprintf("%d bytes", s.ObjectSize),
	}
}

// Launch implements Workload.
func (s *Synthetic) Launch(k *gos.Kernel, p Params) {
	reg := k.Reg
	name := fmt.Sprintf("Synth%d", s.ObjectSize)
	class := reg.Class(name)
	if class == nil {
		class = reg.DefineClass(name, s.ObjectSize, 1)
	}
	placement := p.placement(k.NumNodes())
	parties := barrierParties(p)
	s.regions = make([][]*heap.Object, p.Threads)

	mMain := &stack.Method{Name: "Synthetic.run"}
	mRound := &stack.Method{Name: "Synthetic.round"}

	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		rng := xrand.New(p.Seed).Derive(uint64(tid) + 31337)
		k.SpawnThread(placement[tid], fmt.Sprintf("syn-%d", tid), func(t *gos.Thread) {
			main := t.Stack.Push(mMain, 2)
			region := make([]*heap.Object, s.ObjectsPerThread)
			var prev *heap.Object
			for i := range region {
				o := t.Alloc(class)
				// Chain objects so the sticky-set resolver has a graph.
				if prev != nil {
					prev.Refs[0] = o
				}
				prev = o
				region[i] = o
				t.Write(o)
			}
			s.regions[tid] = region
			main.SetRef(0, region[0])
			t.Barrier(0, parties)

			var zipf *xrand.Zipf
			if s.Pattern == PatternZipf {
				zipf = xrand.NewZipf(rng.Derive(7), 1.2, s.ObjectsPerThread*p.Threads)
			}
			for round := 0; round < s.Intervals; round++ {
				rf := t.Stack.Push(mRound, 1)
				rf.SetRef(0, region[0])
				for a := 0; a < s.AccessesPerInterval; a++ {
					var target int // global object index
					switch s.Pattern {
					case PatternUniform:
						target = rng.Intn(s.ObjectsPerThread * p.Threads)
					case PatternNeighbor:
						// 60% own region, 35% neighbours, 5% anywhere.
						r := rng.Float64()
						switch {
						case r < 0.60:
							target = tid*s.ObjectsPerThread + rng.Intn(s.ObjectsPerThread)
						case r < 0.95:
							nb := tid + 1 - 2*rng.Intn(2)
							nb = (nb + p.Threads) % p.Threads
							target = nb*s.ObjectsPerThread + rng.Intn(s.ObjectsPerThread)
						default:
							target = rng.Intn(s.ObjectsPerThread * p.Threads)
						}
					case PatternBlocks:
						half := p.Threads / 2
						grp := 0
						if tid >= half {
							grp = 1
						}
						lo := grp * half * s.ObjectsPerThread
						span := half * s.ObjectsPerThread
						if span <= 0 {
							span = s.ObjectsPerThread
						}
						target = lo + rng.Intn(span)
					case PatternZipf:
						target = zipf.Rank()
					}
					owner := target / s.ObjectsPerThread
					if owner >= p.Threads {
						owner = p.Threads - 1
					}
					obj := s.regions[owner][target%s.ObjectsPerThread]
					if rng.Float64() < s.WriteFraction {
						t.Write(obj)
					} else {
						t.Read(obj)
					}
					t.Compute(s.AccessCost)
				}
				t.Stack.Pop()
				t.Barrier(0, parties)
			}
			t.Stack.Pop()
		})
	}
}
