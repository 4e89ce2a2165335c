// Package balancer implements the global load balancer the paper's
// profiling output feeds ("the profiling results can be exploited for
// effective thread-to-core placement and dynamic load balancing"). Given a
// thread correlation map and per-thread sticky-set footprints, it computes
// thread placements that maximize collocated sharing subject to a load
// balance constraint, and migration plans that make a move only when its
// locality gain clears a threshold — the paper's §V future-work policy,
// built out as an extension.
package balancer

import (
	"fmt"
	"slices"

	"jessica2/internal/tcm"
)

// Assignment maps thread id to node id.
type Assignment []int

// Clone copies the assignment.
func (a Assignment) Clone() Assignment { return append(Assignment(nil), a...) }

// Counts returns per-node thread counts.
func (a Assignment) Counts(nodes int) []int { return a.countsInto(nil, nodes) }

// countsInto is Counts in dst's storage.
func (a Assignment) countsInto(dst []int, nodes int) []int {
	c := slices.Grow(dst[:0], nodes)[:nodes]
	clear(c)
	for _, n := range a {
		c[n]++
	}
	return c
}

// CrossVolume is the total correlation volume between threads on different
// nodes — the communication the placement pays for.
func CrossVolume(m *tcm.Map, a Assignment) float64 {
	var v float64
	for i := 0; i < m.N(); i++ {
		for j := i + 1; j < m.N(); j++ {
			if a[i] != a[j] {
				v += m.At(i, j)
			}
		}
	}
	return v
}

// Config tunes the planner.
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// MaxMoves caps the number of migrations in one plan (each migration
	// has real cost; the paper warns against thread thrashing).
	MaxMoves int
	// MinGain is the minimum cross-volume reduction (bytes) to justify a
	// move.
	MinGain float64
	// HomeAffinity, when non-nil, is the thread×node matrix of shared
	// volume with objects homed per node (gos.Master.HomeAffinity). It
	// supplies the "home effect" the paper's §VI calls for: moving a
	// thread toward the homes of its data is a gain even when its peer
	// threads live elsewhere — and collocating a thread pair is worthless
	// if their shared objects are homed at a third node.
	HomeAffinity [][]float64
	// HomeWeight scales the home-affinity term against the thread-pair
	// term (0 disables; 1 weighs a byte homed right equal to a byte
	// collocated).
	HomeWeight float64
}

// DefaultConfig returns a conservative planner.
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, MaxMoves: 8, MinGain: 1}
}

// slack is how many threads above the rounded-up average a node may hold
// after a plan: the load-balance constraint.
const slack = 1

// Move is one planned migration.
type Move struct {
	Thread int
	From   int
	To     int
	Gain   float64 // cross-volume reduction in bytes
}

func (m Move) String() string {
	return fmt.Sprintf("T%d: node%d→node%d (gain %.0f B)", m.Thread, m.From, m.To, m.Gain)
}

// Plan improves the current assignment by greedy best-move iteration: at
// each step it evaluates every (thread, node) relocation that keeps the
// load constraint and picks the one with the largest cross-volume
// reduction, until no move clears MinGain or MaxMoves is reached. The
// assignment and moves it returns are fresh slices the caller owns.
func Plan(m *tcm.Map, current Assignment, cfg Config) (Assignment, []Move) {
	check(m, current, cfg)
	a := current.Clone()
	return a, plan(m, a, a.Counts(cfg.Nodes), nil, cfg)
}

// Planner runs Plan in buffers it keeps across calls, so a caller that
// plans at every epoch boundary allocates nothing once they have grown.
// The zero value is ready to use.
type Planner struct {
	a      Assignment
	counts []int
	moves  []Move
}

// Plan plans as the package-level Plan does, in p's buffers: the
// assignment and moves it returns alias them and are overwritten by its
// next call.
func (p *Planner) Plan(m *tcm.Map, current Assignment, cfg Config) (Assignment, []Move) {
	check(m, current, cfg)
	p.a = append(p.a[:0], current...)
	p.counts = p.a.countsInto(p.counts, cfg.Nodes)
	p.moves = plan(m, p.a, p.counts, p.moves[:0], cfg)
	return p.a, p.moves
}

// check panics on a config without nodes or an assignment whose size is
// not the map's dimension.
func check(m *tcm.Map, current Assignment, cfg Config) {
	if cfg.Nodes <= 0 {
		panic("balancer: config needs Nodes")
	}
	if len(current) != m.N() {
		panic(fmt.Sprintf("balancer: assignment size %d != map dim %d", len(current), m.N()))
	}
}

// plan is the greedy loop behind both Plans: it applies each chosen move
// to a and counts, a's per-node thread counts, and appends it to moves.
func plan(m *tcm.Map, a Assignment, counts []int, moves []Move, cfg Config) []Move {
	n := m.N()
	maxPerNode := (n+cfg.Nodes-1)/cfg.Nodes + slack
	if cfg.MaxMoves <= 0 {
		cfg.MaxMoves = n
	}

	// attraction[t][d] = correlation volume between thread t and threads
	// currently on node d, plus the weighted volume of t's data homed at d.
	attraction := func(t, d int) float64 {
		var v float64
		for u := 0; u < n; u++ {
			if u != t && a[u] == d {
				v += m.At(t, u)
			}
		}
		if cfg.HomeWeight > 0 && cfg.HomeAffinity != nil && t < len(cfg.HomeAffinity) {
			row := cfg.HomeAffinity[t]
			if d < len(row) {
				v += cfg.HomeWeight * row[d]
			}
		}
		return v
	}

	for len(moves) < cfg.MaxMoves {
		best := Move{Gain: 0}
		found := false
		for t := 0; t < n; t++ {
			from := a[t]
			here := attraction(t, from)
			for d := 0; d < cfg.Nodes; d++ {
				if d == from || counts[d] >= maxPerNode {
					continue
				}
				gain := attraction(t, d) - here
				if gain > best.Gain {
					best = Move{Thread: t, From: from, To: d, Gain: gain}
					found = true
				}
			}
		}
		if !found || best.Gain < cfg.MinGain {
			break
		}
		a[best.Thread] = best.To
		counts[best.From]--
		counts[best.To]++
		moves = append(moves, best)
	}
	return moves
}

// Blocked places contiguous thread ranges per node (the typical DJVM
// spawn-order placement).
func Blocked(threads, nodes int) Assignment {
	a := make(Assignment, threads)
	per := (threads + nodes - 1) / nodes
	for i := range a {
		a[i] = i / per
		if a[i] >= nodes {
			a[i] = nodes - 1
		}
	}
	return a
}
