package experiments

import (
	"fmt"
	"slices"

	"jessica2/internal/gos"
	"jessica2/internal/metrics"
	"jessica2/internal/runner"
	"jessica2/internal/sampling"
	"jessica2/internal/scenario"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
)

// --- Strict-win grid harness -------------------------------------------------
//
// Every post-paper figure has one shape: a group axis (workload × scenario,
// crash or arrival schedule, application) crossed with a mode axis (the
// baselines and the adaptive contender), one independent run per cell, a
// grouped table, and an acceptance bar of the form "in every group, mode W
// strictly beats mode O on metric M". A Grid declares that shape as data:
// Sweep fans the cells out through the pool, Table renders them, and
// Violations derives the bar from the claims.

// figSeed is the seed of every figure run.
const figSeed = 42

// Grid declares one strict-win sweep whose cells measure a row type R.
type Grid[R any] struct {
	Title string
	// Groups and Modes are the sweep axes. Rows render group-major in this
	// order, and Violations checks every group.
	Groups, Modes []string
	// Keys head the leading columns: the group, then the mode. A group
	// spanning several columns sets GroupCells to give its cells. A group
	// repeating the previous row's renders blank.
	Keys       []string
	GroupCells func(group string) []string
	Columns    []Column[R]
	// Base, when set, names the mode that runs first as its own wave; each
	// group's Base row is passed to the group's other modes. Without a Base
	// every cell gets nil.
	Base string
	Run  func(group, mode string, base *R) (R, error)
	// Claims are checked in order in every complete group, between the
	// figure-specific Pre and Post checks; Final checks the complete
	// groups together after the last one.
	Claims    []Claim[R]
	Pre, Post func(g GroupRows[R]) []string
	Final     func(gs []GroupRows[R]) []string
}

// Column is one metric column: its header and its cell formatter.
type Column[R any] struct {
	Header string
	Show   func(*R) string
}

// Direction says which way a claim's metric improves.
type Direction int

// The two claim directions.
const (
	Lower Direction = iota
	Higher
)

// Claim asserts that mode Winner strictly beats mode Over on one metric.
type Claim[R any] struct {
	// Label names the metric in the violation message ("" omits it).
	Label        string
	Winner, Over string
	Better       Direction
	Value        func(*R) float64
	Show         func(*R) string
}

// check returns the claim's violation in group g, if any.
func (c Claim[R]) check(g GroupRows[R]) []string {
	win, over := g.Row(c.Winner), g.Row(c.Over)
	w, o := c.Value(win), c.Value(over)
	if c.Better == Lower && w < o || c.Better == Higher && w > o {
		return nil
	}
	who := c.Winner
	if c.Label != "" {
		who += " " + c.Label
	}
	return []string{fmt.Sprintf("%s: %s (%s) did not beat %s (%s)",
		g.Name, who, c.Show(win), c.Over, c.Show(over))}
}

// Cell is one measured (group, mode) row.
type Cell[R any] struct {
	Group, Mode string
	Row         R
}

// Result is a finished sweep: the measured cells in render order plus one
// "<group>/<mode>: <err>" message per cell that failed to run.
type Result[R any] struct {
	Grid     *Grid[R]
	Cells    []Cell[R]
	Failures []string
}

// GroupRows is one group's view of a result, handed to the checks.
type GroupRows[R any] struct {
	Name string
	res  *Result[R]
}

// Row returns the group's row for mode, or nil.
func (g GroupRows[R]) Row(mode string) *R { return g.res.Row(g.Name, mode) }

// Sweep runs every cell through the pool, the Base wave first when set, and
// collects the rows in Groups × Modes order. Cells run through
// runner.TryCollect: a failing cell is left out of the rows and reported in
// Failures, and a group whose Base failed runs no other mode.
func (g *Grid[R]) Sweep(p *runner.Pool) *Result[R] {
	n := len(g.Modes)
	rows := make([]*R, len(g.Groups)*n)
	errs := make([]error, len(rows))
	base := slices.Index(g.Modes, g.Base)
	wave := func(pick func(i int) bool) {
		var idx []int
		var jobs []func() (R, error)
		for i := range rows {
			if !pick(i) {
				continue
			}
			group, mode := g.Groups[i/n], g.Modes[i%n]
			var b *R
			if base >= 0 && i%n != base {
				b = rows[i-i%n+base]
			}
			idx = append(idx, i)
			jobs = append(jobs, func() (R, error) { return g.Run(group, mode, b) })
		}
		for j, res := range runner.TryCollect(p, jobs) {
			if res.Err != nil {
				errs[idx[j]] = res.Err
			} else {
				rows[idx[j]] = &res.Value
			}
		}
	}
	wave(func(i int) bool { return i%n == base })
	wave(func(i int) bool { return i%n != base && (base < 0 || rows[i-i%n+base] != nil) })
	res := &Result[R]{Grid: g}
	for i, row := range rows {
		group, mode := g.Groups[i/n], g.Modes[i%n]
		if errs[i] != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("%s/%s: %v", group, mode, errs[i]))
		}
		if row != nil {
			res.Cells = append(res.Cells, Cell[R]{Group: group, Mode: mode, Row: *row})
		}
	}
	return res
}

// Row returns the (group, mode) row, or nil.
func (r *Result[R]) Row(group, mode string) *R {
	for i := range r.Cells {
		if c := &r.Cells[i]; c.Group == group && c.Mode == mode {
			return &c.Row
		}
	}
	return nil
}

// Violations checks the sweep's acceptance bar and returns one message per
// broken invariant (empty means the figure holds): the failed cells first,
// then per group "missing rows" or its Pre checks, claims and Post checks,
// then the Final check.
func (r *Result[R]) Violations() []string {
	g := r.Grid
	out := slices.Clone(r.Failures)
	var complete []GroupRows[R]
	for _, name := range g.Groups {
		gr := GroupRows[R]{Name: name, res: r}
		if slices.ContainsFunc(g.Modes, func(m string) bool { return gr.Row(m) == nil }) {
			out = append(out, name+": missing rows")
			continue
		}
		complete = append(complete, gr)
		if g.Pre != nil {
			out = append(out, g.Pre(gr)...)
		}
		for _, c := range g.Claims {
			out = append(out, c.check(gr)...)
		}
		if g.Post != nil {
			out = append(out, g.Post(gr)...)
		}
	}
	if g.Final != nil {
		out = append(out, g.Final(complete)...)
	}
	return out
}

// Table renders the sweep.
func (r *Result[R]) Table() *metrics.Table {
	g := r.Grid
	headers := slices.Clone(g.Keys)
	for _, c := range g.Columns {
		headers = append(headers, c.Header)
	}
	t := metrics.NewTable(g.Title, headers...)
	prev := ""
	for i := range r.Cells {
		c := &r.Cells[i]
		row := []string{c.Group}
		if g.GroupCells != nil {
			row = slices.Clone(g.GroupCells(c.Group))
		}
		if c.Group == prev {
			clear(row)
		} else {
			prev = c.Group
		}
		row = append(row, c.Mode)
		for _, col := range g.Columns {
			row = append(row, col.Show(&c.Row))
		}
		t.AddRow(row...)
	}
	return t
}

func (r *Result[R]) String() string { return r.Table().String() }

// --- shared cell pieces ------------------------------------------------------

// figNodes and figThreads are every session cell's cluster shape.
const figNodes, figThreads = 4, 8

// figSpec is a figure cell's run: a 4-node, 8-thread session at figSeed,
// profiled at the full rate, under scen.
func figSpec(scen *scenario.Scenario) Spec {
	return Spec{Nodes: figNodes, Threads: figThreads, Seed: figSeed,
		Tracking: gos.TrackingSampled, Rate: sampling.FullRate, TransferOALs: true, Scenario: scen}
}

// sessionCell is one figure run: spec's session with load and policy (nil
// for none) standing in for its App and Policy, under the named scenario
// preset when one is given.
type sessionCell struct {
	load   workload.Workload
	policy session.Policy
	preset string
	spec   Spec
}

// run executes the cell and returns the finished session and its
// execution time.
func (c sessionCell) run() (*session.Session, sim.Time, error) {
	spec := c.spec
	if c.preset != "" {
		var err error
		if spec.Scenario, err = scenario.Preset(c.preset, spec.Nodes, spec.Seed); err != nil {
			return nil, 0, err
		}
	}
	s, _, err := newSession(spec, c.load, c.policy)
	if err != nil {
		return nil, 0, err
	}
	exec, err := s.Run()
	return s, exec, err
}

// failureConfig is the failure detector at heartbeat hb: a lease expires
// after three missed beats, and OAL flushes time out after four and back
// off on the heartbeat grid.
func failureConfig(hb sim.Time) *gos.FailureConfig {
	return &gos.FailureConfig{
		HeartbeatInterval: hb,
		LeaseTimeout:      3 * hb,
		SweepInterval:     hb,
		FlushTimeout:      4 * hb,
		FlushBackoff:      hb,
		MaxFlushBackoff:   16 * hb,
		MaxFlushRetries:   4,
	}
}

// unserved reports a serving row that did not finish its whole schedule.
func unserved(group, mode string, completed, arrived int) []string {
	if completed != arrived || completed == 0 {
		return []string{fmt.Sprintf("%s/%s: served %d of %d requests", group, mode, completed, arrived)}
	}
	return nil
}
