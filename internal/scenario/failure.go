package scenario

import (
	"fmt"
	"sort"

	"jessica2/internal/gos"
	"jessica2/internal/network"
	"jessica2/internal/sim"
	"jessica2/internal/xrand"
)

// Failure vocabulary. Unlike the performance perturbations (speed factors,
// ramps, jitter), failure events make the simulated distributed runtime
// actually lose things: nodes crash, links partition, and dedicated profile
// flushes drop or duplicate. All of it stays a pure function of the scenario
// spec and seed — crash windows are fixed virtual-time intervals, and the
// flush-loss stream is a seeded per-message draw — so a run under failures
// is exactly as reproducible as a clean one.
//
// Two invariants keep fault injection live (the sim must still terminate):
//
//   - Only messages whose primary category is CatOAL are ever dropped or
//     duplicated. OAL flushes have an application-level retry path
//     (sequence-numbered, acked, retransmitted); protocol traffic a blocked
//     proc waits on is delayed, never lost.
//   - CatMigration traffic is exempt from interception entirely: it is the
//     evacuation channel the failure detector uses to move threads off dead
//     nodes, and delaying it against a permanent crash would wedge recovery.

// DefaultCrashFactor is the CPU crawl factor applied to a crashed node when
// a Crash does not specify one. A crash is modeled as a near-freeze rather
// than a total stop: threads still (glacially) reach safe points so the
// failure detector can evacuate them, and the node stops emitting
// heartbeats (the gos heartbeat loop suppresses beats below a fifth of
// nominal speed), which is what actually declares it dead.
const DefaultCrashFactor = 0.05

// downPenalty is the extra per-message delivery delay for protocol traffic
// to or from a permanently crashed node (Restart == 0). It is finite on
// purpose: an unreachable-forever endpoint would deadlock any proc blocked
// on a fetch roundtrip, so a dead node is merely very slow to talk to.
const downPenalty = 5 * sim.Millisecond

// Crash takes a node down at At and (optionally) back up at Restart.
// Restart == 0 means the node never comes back (see Forever). While down,
// the node's CPU runs at Factor of its base speed (DefaultCrashFactor when
// Factor == 0), its heartbeats stop, dedicated OAL flushes to/from it are
// dropped, and other traffic involving it is deferred to the restart (or
// penalized, for a permanent crash).
type Crash struct {
	Node        int
	At, Restart sim.Time
	Factor      float64
}

// Forever reports whether the crash is permanent. Restart == 0 is the
// explicit "never restarts" encoding, and it is unambiguous even for a
// crash scheduled at At == 0: a finite restart must satisfy
// Restart > At >= 0 (validation rejects anything else and normalization
// drops it), so no finite window can ever have Restart == 0.
func (c Crash) Forever() bool { return c.Restart == 0 }

// window returns the down interval [start, end) and whether it extends
// forever. end is meaningful only when forever is false; every consumer of
// the schedule goes through this (or Down) rather than re-deriving the
// Restart == 0 convention.
func (c Crash) window() (start, end sim.Time, forever bool) {
	return c.At, c.Restart, c.Forever()
}

// Down reports whether the crash covers virtual time now.
func (c Crash) Down(now sim.Time) bool {
	start, end, forever := c.window()
	return now >= start && (forever || now < end)
}

// Partition isolates the Nodes group from the rest of the cluster during
// [At, At+Duration). Dedicated OAL flushes crossing the cut are dropped;
// all other crossing traffic is held and delivered when the partition
// heals.
type Partition struct {
	At, Duration sim.Time
	Nodes        []int
}

// heals returns the virtual time the partition ends.
func (p Partition) heals() sim.Time { return p.At + p.Duration }

// FlushLoss drops or duplicates dedicated profile-flush messages (primary
// category CatOAL) with the given per-message probabilities, drawn from a
// stream seeded by the scenario seed and Salt. DropProb + DupProb must not
// exceed 1.
type FlushLoss struct {
	DropProb, DupProb float64
	// Salt offsets the loss stream from the scenario seed so distinct loss
	// specs under one seed draw independent streams.
	Salt uint64
}

// NormalizeCrashes canonicalizes a crash schedule: it clamps negative times
// to zero, discards entries whose restart does not come after the crash
// (restart-before-crash is meaningless, not an error), clamps Factor into
// [0, 1] (non-positive means "use DefaultCrashFactor"), sorts by
// (Node, At, Restart), and merges overlapping or touching windows on the
// same node — a Restart of 0 (never) absorbs everything after it. The
// result is sorted, per-node non-overlapping, and the function is
// idempotent; Apply and the failure interceptor only ever see normalized
// schedules.
func NormalizeCrashes(crashes []Crash) []Crash {
	out := make([]Crash, 0, len(crashes))
	for _, c := range crashes {
		if c.At < 0 {
			c.At = 0
		}
		if c.Restart < 0 {
			c.Restart = 0
		}
		if !c.Forever() && c.Restart <= c.At {
			continue // restart-before-crash: drop, never panic
		}
		if c.Factor < 0 {
			c.Factor = 0
		}
		if c.Factor > 1 {
			c.Factor = 1
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.At != b.At {
			return a.At < b.At
		}
		// Permanent windows sort after finite ones at the same At.
		if a.Forever() {
			return false
		}
		if b.Forever() {
			return true
		}
		return a.Restart < b.Restart
	})
	merged := out[:0]
	for _, c := range out {
		if len(merged) > 0 {
			last := &merged[len(merged)-1]
			if last.Node == c.Node && (last.Forever() || c.At <= last.Restart) {
				// Overlapping or touching: extend the earlier window. The
				// earlier window's crawl factor wins.
				if !last.Forever() && (c.Forever() || c.Restart > last.Restart) {
					last.Restart = c.Restart
				}
				continue
			}
		}
		merged = append(merged, c)
	}
	return merged
}

// validateFailures checks the failure vocabulary against a cluster size.
func (sc *Scenario) validateFailures(nodes int) error {
	for _, c := range sc.Crashes {
		if c.Node <= 0 || c.Node >= nodes {
			if c.Node == 0 {
				return fmt.Errorf("scenario: cannot crash node 0 (the master JVM hosts the failure detector)")
			}
			return fmt.Errorf("scenario: crash on node %d of %d", c.Node, nodes)
		}
		if c.At < 0 {
			return fmt.Errorf("scenario: crash at negative time %v", c.At)
		}
		if !c.Forever() && c.Restart <= c.At {
			return fmt.Errorf("scenario: crash restart %v not after crash %v", c.Restart, c.At)
		}
		if !finite(c.Factor) || c.Factor < 0 || c.Factor > 1 {
			return fmt.Errorf("scenario: crash factor %g outside [0, 1]", c.Factor)
		}
	}
	for _, p := range sc.Partitions {
		if p.At < 0 || p.Duration <= 0 {
			return fmt.Errorf("scenario: partition window at=%v dur=%v invalid", p.At, p.Duration)
		}
		if len(p.Nodes) == 0 || len(p.Nodes) >= nodes {
			return fmt.Errorf("scenario: partition group of %d nodes in a %d-node cluster cuts nothing", len(p.Nodes), nodes)
		}
		for _, n := range p.Nodes {
			if n < 0 || n >= nodes {
				return fmt.Errorf("scenario: partition includes node %d of %d", n, nodes)
			}
		}
	}
	if fl := sc.FlushLoss; fl != nil {
		if !finite(fl.DropProb) || !finite(fl.DupProb) ||
			fl.DropProb < 0 || fl.DupProb < 0 || fl.DropProb+fl.DupProb > 1 {
			return fmt.Errorf("scenario: flush loss probabilities drop=%g dup=%g invalid", fl.DropProb, fl.DupProb)
		}
	}
	return nil
}

// hasFailures reports whether any failure events are configured.
func (sc *Scenario) hasFailures() bool {
	return len(sc.Crashes) > 0 || len(sc.Partitions) > 0 || sc.FlushLoss != nil
}

// failureInterceptor implements network.Interceptor from the scenario's
// normalized failure schedule.
type failureInterceptor struct {
	crashes    []Crash // normalized
	partitions []Partition
	inGroup    []map[int]bool // per-partition membership
	loss       *FlushLoss
	rng        *xrand.Rand
}

var _ network.Interceptor = (*failureInterceptor)(nil)

func newFailureInterceptor(sc *Scenario) *failureInterceptor {
	fi := &failureInterceptor{
		crashes:    NormalizeCrashes(sc.Crashes),
		partitions: sc.Partitions,
	}
	for _, p := range fi.partitions {
		g := make(map[int]bool, len(p.Nodes))
		for _, n := range p.Nodes {
			g[n] = true
		}
		fi.inGroup = append(fi.inGroup, g)
	}
	if sc.FlushLoss != nil && (sc.FlushLoss.DropProb > 0 || sc.FlushLoss.DupProb > 0) {
		l := *sc.FlushLoss
		fi.loss = &l
		fi.rng = xrand.New(sc.Seed).Derive(l.Salt + 0x51a7)
	}
	return fi
}

// downUntil reports whether node is crashed at now, and when it restarts
// (0 = never).
func (fi *failureInterceptor) downUntil(node int, now sim.Time) (restart sim.Time, down bool) {
	for _, c := range fi.crashes {
		if c.Node != node {
			continue
		}
		if c.Down(now) {
			return c.Restart, true
		}
	}
	return 0, false
}

// downVerdict is the fate of traffic touching a crashed endpoint.
func downVerdict(primary network.Category, restart, now sim.Time) network.Verdict {
	if primary == network.CatOAL {
		return network.Verdict{Drop: true} // flush machinery retries
	}
	if restart > now {
		return network.Verdict{Delay: restart - now} // deferred to restart
	}
	return network.Verdict{Delay: downPenalty} // permanent crash: very slow, never dead air
}

// Intercept decides one remote message's fate. Draw order on the loss
// stream is deterministic because messages post in deterministic order and
// every earlier gate is a pure function of (now, from, to, primary).
func (fi *failureInterceptor) Intercept(now sim.Time, from, to network.NodeID, primary network.Category, totalBytes int) network.Verdict {
	if primary == network.CatMigration {
		return network.Verdict{} // evacuation channel: never perturbed
	}
	if restart, down := fi.downUntil(int(from), now); down {
		return downVerdict(primary, restart, now)
	}
	if restart, down := fi.downUntil(int(to), now); down {
		return downVerdict(primary, restart, now)
	}
	for i, p := range fi.partitions {
		if now < p.At || now >= p.heals() {
			continue
		}
		if fi.inGroup[i][int(from)] != fi.inGroup[i][int(to)] {
			if primary == network.CatOAL {
				return network.Verdict{Drop: true}
			}
			return network.Verdict{Delay: p.heals() - now} // held until heal
		}
	}
	if fi.loss != nil && primary == network.CatOAL {
		u := fi.rng.Float64()
		switch {
		case u < fi.loss.DropProb:
			return network.Verdict{Drop: true}
		case u < fi.loss.DropProb+fi.loss.DupProb:
			return network.Verdict{Duplicate: true}
		}
	}
	return network.Verdict{}
}

// applyFailures schedules crash crawl/restore speed events and installs the
// failure interceptor. Called from Apply after validation.
func (sc *Scenario) applyFailures(k *gos.Kernel) {
	if !sc.hasFailures() {
		return
	}
	for _, c := range NormalizeCrashes(sc.Crashes) {
		cpu := k.Node(c.Node).CPU()
		base := sc.baseFactor(c.Node)
		factor := c.Factor
		if factor <= 0 {
			factor = DefaultCrashFactor
		}
		crawl := base * factor
		k.Eng.Schedule(c.At, func() { cpu.SetSpeed(crawl) })
		if !c.Forever() {
			k.Eng.Schedule(c.Restart, func() { cpu.SetSpeed(base) })
		}
	}
	k.Net.SetInterceptor(newFailureInterceptor(sc))
}
