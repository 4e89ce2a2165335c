// Package tcm implements the thread correlation map (TCM): the N×N
// histogram of shared data volume between each pair of threads, the
// correlation-computing daemon that builds it from object access lists, and
// the Euclidean / absolute distance metrics (paper equations 1 and 2) used
// to quantify sampling accuracy.
package tcm

import (
	"fmt"
	"math"
	"strings"
)

// Map is a symmetric N×N matrix of shared bytes per thread pair. The
// diagonal is unused (self-sharing is not correlation).
type Map struct {
	n     int
	cells []float64
}

// NewMap returns an N×N zero map.
func NewMap(n int) *Map {
	if n < 0 {
		panic("tcm: negative dimension")
	}
	return &Map{n: n, cells: make([]float64, n*n)}
}

// N returns the dimension (thread count).
func (m *Map) N() int { return m.n }

// At returns the shared volume between threads i and j.
func (m *Map) At(i, j int) float64 { return m.cells[i*m.n+j] }

// Add accrues v bytes of shared volume symmetrically between i and j.
// Adding to the diagonal is ignored.
func (m *Map) Add(i, j int, v float64) {
	if i == j {
		return
	}
	m.cells[i*m.n+j] += v
	m.cells[j*m.n+i] += v
}

// Set assigns the cell symmetrically.
func (m *Map) Set(i, j int, v float64) {
	if i == j {
		return
	}
	m.cells[i*m.n+j] = v
	m.cells[j*m.n+i] = v
}

// Total returns the sum of all off-diagonal cells (each pair counted twice,
// consistently for both operands of a distance).
func (m *Map) Total() float64 {
	s := 0.0
	for _, v := range m.cells {
		s += v
	}
	return s
}

// Clone returns a deep copy.
func (m *Map) Clone() *Map {
	c := NewMap(m.n)
	copy(c.cells, m.cells)
	return c
}

// Reuse returns m resized to n×n with every cell zeroed, recycling the
// backing array when its capacity allows; a nil receiver allocates fresh.
// It is the scratch-reuse primitive behind PeekInto.
func (m *Map) Reuse(n int) *Map {
	if m == nil {
		return NewMap(n)
	}
	if n < 0 {
		panic("tcm: negative dimension")
	}
	need := n * n
	if cap(m.cells) < need {
		m.cells = make([]float64, need)
	} else {
		m.cells = m.cells[:need]
		clear(m.cells)
	}
	m.n = n
	return m
}

// AppendFixedCells appends every cell quantized to the builders' scaled
// fixed-point units (see builder_inc.go: 2^-12 bytes of resolution) to dst,
// row-major including both symmetric mirrors. It is the profile store's
// serialization form: for maps rendered from the incremental accumulator
// the quantization is exact, so AppendFixedCells∘NewMapFromFixed
// round-trips bit-identically.
func (m *Map) AppendFixedCells(dst []int64) []int64 {
	for _, v := range m.cells {
		dst = append(dst, toFixed(v))
	}
	return dst
}

// AppendCellBits appends every cell's IEEE-754 bit pattern to dst,
// row-major including both symmetric mirrors. Unlike AppendFixedCells this
// is exact for *any* map, not just ones accumulated in fixed point (the
// page-based baseline tracker builds float maps directly), which is why
// internal/dispatch's Out codec uses it: AppendCellBits∘NewMapFromBits
// round-trips bit-identically for every map.
func (m *Map) AppendCellBits(dst []uint64) []uint64 {
	for _, v := range m.cells {
		dst = append(dst, math.Float64bits(v))
	}
	return dst
}

// NewMapFromBits reconstructs an n×n map from IEEE-754 cell bit patterns
// (len must be n×n, as produced by AppendCellBits).
func NewMapFromBits(n int, bits []uint64) *Map {
	if len(bits) != n*n {
		panic(fmt.Sprintf("tcm: %d cell bits for an %d×%d map", len(bits), n, n))
	}
	m := NewMap(n)
	for i, b := range bits {
		m.cells[i] = math.Float64frombits(b)
	}
	return m
}

// NewMapFromFixed reconstructs an n×n map from scaled fixed-point cells
// (len must be n×n, as produced by AppendFixedCells).
func NewMapFromFixed(n int, cells []int64) *Map {
	if len(cells) != n*n {
		panic(fmt.Sprintf("tcm: %d fixed cells for an %d×%d map", len(cells), n, n))
	}
	m := NewMap(n)
	for i, v := range cells {
		m.cells[i] = toFloat(v)
	}
	return m
}

// Scale multiplies every cell by f, in place, returning the map.
func (m *Map) Scale(f float64) *Map {
	for i := range m.cells {
		m.cells[i] *= f
	}
	return m
}

// MaxCell returns the largest cell value.
func (m *Map) MaxCell() float64 {
	mx := 0.0
	for _, v := range m.cells {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// DistanceEUC is the paper's equation (1): the Euclidean norm of A−B
// normalized by the Euclidean norm of B.
func DistanceEUC(a, b *Map) float64 {
	checkDims(a, b)
	var num, den float64
	for i := range a.cells {
		d := a.cells[i] - b.cells[i]
		num += d * d
		den += b.cells[i] * b.cells[i]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num) / math.Sqrt(den)
}

// DistanceABS is the paper's equation (2): the elementwise absolute
// difference normalized by the total volume of B.
func DistanceABS(a, b *Map) float64 {
	checkDims(a, b)
	var num, den float64
	for i := range a.cells {
		num += math.Abs(a.cells[i] - b.cells[i])
		den += b.cells[i]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}

// Accuracy converts a distance into the paper's accuracy percentage
// (1 − E, floored at zero).
func Accuracy(distance float64) float64 {
	a := 1 - distance
	if a < 0 {
		return 0
	}
	return a
}

func checkDims(a, b *Map) {
	if a.n != b.n {
		panic(fmt.Sprintf("tcm: dimension mismatch %d vs %d", a.n, b.n))
	}
}

// String renders a compact ASCII heat map (shades by relative magnitude),
// which is how cmd/tcmviz draws Fig. 1.
func (m *Map) String() string {
	shades := []byte(" .:-=+*#%@")
	mx := m.MaxCell()
	var sb strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			v := m.At(i, j)
			k := 0
			if mx > 0 {
				k = int(v / mx * float64(len(shades)-1))
			}
			sb.WriteByte(shades[k])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// BuildCost records the work the correlation daemon performed, used by the
// simulator to charge CPU time: reorganization is O(M·N̄) over M objects
// and TCM accrual is O(M·N²) worst case (PairAdds counts the realized
// pairwise additions).
//
// The ledger reports the paper's *simulated* charge: Builder accounts a
// charged Build as the full O(M·N²) reorganize-and-accrue pass, even though
// its host-side work per Build is O(1).
// The simulated analyzer the tables charge is the paper's daemon, not our
// maintenance strategy.
type BuildCost struct {
	Records  int
	Entries  int
	Objects  int   // M: distinct objects seen
	PairAdds int64 // realized accrual operations
	// DroppedEntries counts malformed entries (thread id out of range)
	// rejected at ingestion.
	DroppedEntries int64
}

// freePoolCap bounds the entry storage Builder retains across Reset: a
// storm window must not permanently pin its peak entry population. Keeping
// 2×(the window just recycled)+slack adapts the retained storage to the
// current working set within one window of a large→small transition.
func freePoolCap(recycled int) int { return 2*recycled + 64 }
