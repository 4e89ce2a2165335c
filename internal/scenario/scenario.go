// Package scenario is the fault-injection scenario engine: it composes a
// base workload run with a schedule of deterministic, seed-driven
// perturbations, so the adaptive profilers can be validated under the
// changing runtime conditions they exist to react to. A Scenario bundles
// four perturbation vocabularies:
//
//   - CPU heterogeneity: per-node speed factors (slow nodes take
//     proportionally longer per unit of nominal work), via the per-node
//     clock-scaling hook sim.Resource.SetSpeed;
//   - link ramps: latency and bandwidth factors varying linearly over a
//     virtual-time window, via the network.Shaper hook;
//   - jitter: seeded per-message latency noise, also via the Shaper;
//   - transient slowdowns ("noisy neighbor"): a node drops to a fraction
//     of its speed for a bounded episode, then recovers;
//   - phase shifts: scheduled advances of the workload.Phase register that
//     phase-aware workloads consult at round boundaries;
//   - failure events (see failure.go): node crash/restart schedules,
//     transient partitions, and seeded per-message loss/duplication of
//     dedicated profile flushes, via the network.Interceptor hook;
//   - open-loop arrivals (see arrivals.go): seed-deterministic Poisson,
//     diurnal, and burst request schedules for request-serving workloads.
//
// Everything is a pure function of the scenario spec and its seed: messages
// post in deterministic order, events fire in deterministic order, and the
// jitter and flush-loss streams are seeded SplitMix64 sequences — so a
// perturbed run is exactly as reproducible as an unperturbed one (the
// golden-trace tests assert byte-identical reports across repeats).
package scenario

import (
	"fmt"
	"sort"
	"strings"

	"jessica2/internal/gos"
	"jessica2/internal/network"
	"jessica2/internal/sim"
	"jessica2/internal/workload"
	"jessica2/internal/xrand"
)

// RampParam selects which link parameter a Ramp modulates.
type RampParam int

const (
	// RampLatency scales the one-way message latency.
	RampLatency RampParam = iota
	// RampBandwidth scales the link throughput (factors < 1 slow transfers).
	RampBandwidth
)

func (p RampParam) String() string {
	switch p {
	case RampLatency:
		return "latency"
	case RampBandwidth:
		return "bandwidth"
	default:
		return fmt.Sprintf("rampparam(%d)", int(p))
	}
}

// Ramp varies one link parameter linearly from From× to To× of its
// configured value over the virtual-time window [Start, End]; before Start
// the factor is From, after End it stays at To. A degenerate window
// (Start == End) is an instantaneous step change at Start.
type Ramp struct {
	Param      RampParam
	Start, End sim.Time
	From, To   float64
}

// factorAt evaluates the ramp at virtual time now.
func (r Ramp) factorAt(now sim.Time) float64 {
	switch {
	case now < r.Start:
		return r.From
	case now >= r.End:
		return r.To
	}
	frac := float64(now-r.Start) / float64(r.End-r.Start)
	return r.From + (r.To-r.From)*frac
}

// Jitter adds seeded per-message latency noise uniform in [0, Amplitude).
type Jitter struct {
	Amplitude sim.Time
}

// Slowdown is a transient noisy-neighbor episode: the node's CPU drops to
// Factor of its (possibly heterogeneous) base speed at At and recovers
// Duration later. Episodes on the same node should not overlap — recovery
// restores the base speed, not the pre-episode speed.
type Slowdown struct {
	Node         int
	At, Duration sim.Time
	Factor       float64
}

// PhaseShift advances the workload phase register at a virtual time.
type PhaseShift struct {
	At    sim.Time
	Phase int
}

// Scenario is one composed perturbation schedule.
type Scenario struct {
	Name string
	// Seed drives all scenario randomness (currently the jitter stream).
	Seed uint64

	// CPUFactors is the per-node relative speed (1.0 = nominal); missing
	// trailing nodes default to 1.0. This is the heterogeneous-cluster
	// perturbation.
	CPUFactors  []float64
	Ramps       []Ramp
	Jitter      *Jitter
	Slowdowns   []Slowdown
	PhaseShifts []PhaseShift

	// Failure events (failure.go). Unlike the perturbations above these make
	// the runtime lose things; the gos failure detector (gos.FailureConfig)
	// is what lets a session survive them.
	Crashes    []Crash
	Partitions []Partition
	FlushLoss  *FlushLoss

	// Arrivals is the open-loop traffic schedule (arrivals.go). It does not
	// perturb the kernel; the session layer materializes it into an arrival
	// schedule for open-loop workloads (workload.ServeMix) at launch.
	Arrivals *Arrivals
}

// Kinds lists the perturbation kinds the scenario carries, sorted.
func (sc *Scenario) Kinds() []string {
	var out []string
	if len(sc.CPUFactors) > 0 {
		out = append(out, "cpu-heterogeneity")
	}
	for _, r := range sc.Ramps {
		out = append(out, r.Param.String()+"-ramp")
	}
	if sc.Jitter != nil {
		out = append(out, "jitter")
	}
	if len(sc.Slowdowns) > 0 {
		out = append(out, "transient-slowdown")
	}
	if len(sc.PhaseShifts) > 0 {
		out = append(out, "phase-shift")
	}
	if len(sc.Crashes) > 0 {
		out = append(out, "crash")
	}
	if len(sc.Partitions) > 0 {
		out = append(out, "partition")
	}
	if sc.FlushLoss != nil {
		out = append(out, "flush-loss")
	}
	if sc.Arrivals != nil {
		out = append(out, "arrivals-"+sc.Arrivals.Kind.String())
	}
	sort.Strings(out)
	uniq := out[:0]
	for i, k := range out {
		if i == 0 || out[i-1] != k {
			uniq = append(uniq, k)
		}
	}
	return uniq
}

// String renders a one-line description.
func (sc *Scenario) String() string {
	if sc == nil {
		return "none"
	}
	name := sc.Name
	if name == "" {
		name = "scenario"
	}
	return fmt.Sprintf("%s{%s}", name, strings.Join(sc.Kinds(), ","))
}

// Validate checks the scenario against a cluster size.
func (sc *Scenario) Validate(nodes int) error {
	for i, f := range sc.CPUFactors {
		if !finite(f) || f <= 0 {
			return fmt.Errorf("scenario: CPU factor %g for node %d must be positive and finite", f, i)
		}
	}
	if len(sc.CPUFactors) > nodes {
		return fmt.Errorf("scenario: %d CPU factors for %d nodes", len(sc.CPUFactors), nodes)
	}
	for _, r := range sc.Ramps {
		if !finite(r.From) || !finite(r.To) || r.From <= 0 || r.To <= 0 {
			return fmt.Errorf("scenario: ramp factors must be positive and finite (got %g -> %g)", r.From, r.To)
		}
		if r.Start < 0 || r.End < r.Start {
			return fmt.Errorf("scenario: ramp window [%v, %v] invalid", r.Start, r.End)
		}
	}
	if sc.Jitter != nil && sc.Jitter.Amplitude < 0 {
		return fmt.Errorf("scenario: negative jitter amplitude %v", sc.Jitter.Amplitude)
	}
	for _, s := range sc.Slowdowns {
		if s.Node < 0 || s.Node >= nodes {
			return fmt.Errorf("scenario: slowdown on node %d of %d", s.Node, nodes)
		}
		if !finite(s.Factor) || s.Factor <= 0 {
			return fmt.Errorf("scenario: slowdown factor %g must be positive and finite", s.Factor)
		}
		if s.At < 0 || s.Duration <= 0 {
			return fmt.Errorf("scenario: slowdown window at=%v dur=%v invalid", s.At, s.Duration)
		}
	}
	for _, p := range sc.PhaseShifts {
		if p.At < 0 {
			return fmt.Errorf("scenario: phase shift at negative time %v", p.At)
		}
	}
	if err := sc.Arrivals.Validate(); err != nil {
		return err
	}
	return sc.validateFailures(nodes)
}

// baseFactor is a node's heterogeneous base speed.
func (sc *Scenario) baseFactor(node int) float64 {
	if node < len(sc.CPUFactors) {
		return sc.CPUFactors[node]
	}
	return 1
}

// Apply installs the scenario into a freshly built kernel: CPU factors and
// slowdown episodes onto node CPU resources, the link shaper onto the
// network, and phase shifts onto the phase register (which may be nil when
// no workload consults it). Call before k.Run(), normally at virtual time
// zero; it panics if the scenario does not validate against the cluster.
func (sc *Scenario) Apply(k *gos.Kernel, ph *workload.Phase) {
	if sc == nil {
		return
	}
	if err := sc.Validate(k.NumNodes()); err != nil {
		panic(err)
	}
	for i, f := range sc.CPUFactors {
		k.Node(i).CPU().SetSpeed(f)
	}
	for _, s := range sc.Slowdowns {
		s := s
		cpu := k.Node(s.Node).CPU()
		base := sc.baseFactor(s.Node)
		k.Eng.Schedule(s.At, func() { cpu.SetSpeed(base * s.Factor) })
		k.Eng.Schedule(s.At+s.Duration, func() { cpu.SetSpeed(base) })
	}
	if len(sc.Ramps) > 0 || sc.Jitter != nil {
		sh := &shaper{ramps: sc.Ramps}
		if sc.Jitter != nil && sc.Jitter.Amplitude > 0 {
			sh.jitterAmp = sc.Jitter.Amplitude
			sh.rng = xrand.New(sc.Seed).Derive(0x9e77)
		}
		k.Net.SetShaper(sh)
	}
	if ph != nil {
		for _, p := range sc.PhaseShifts {
			p := p
			k.Eng.Schedule(p.At, func() { ph.Set(p.Phase) })
		}
	}
	sc.applyFailures(k)
}

// shaper implements network.Shaper from the scenario's ramps and jitter.
type shaper struct {
	ramps     []Ramp
	jitterAmp sim.Time
	rng       *xrand.Rand
}

var _ network.Shaper = (*shaper)(nil)

// TransferTime recomputes latency + serialization under the factors active
// at now, then adds one jitter draw. Factors of stacked ramps on the same
// parameter multiply.
func (s *shaper) TransferTime(now sim.Time, from, to network.NodeID, totalBytes int) sim.Time {
	latF, bwF := 1.0, 1.0
	for _, r := range s.ramps {
		switch r.Param {
		case RampLatency:
			latF *= r.factorAt(now)
		case RampBandwidth:
			bwF *= r.factorAt(now)
		}
	}
	// Clamp degenerate products: stacked ramps can underflow the bandwidth
	// factor toward zero (infinite serialization time) and a pathological
	// latency factor could go negative. The network layer additionally
	// clamps the final delay to >= 0.
	if bwF < 1e-9 {
		bwF = 1e-9
	}
	if latF < 0 {
		latF = 0
	}
	lat := sim.Time(float64(network.Latency)*latF + 0.5)
	ser := sim.Time(float64(totalBytes) * float64(sim.Second) / (float64(network.BandwidthBytesPerSec) * bwF))
	d := lat + ser
	if s.rng != nil {
		d += sim.Time(s.rng.Uint64() % uint64(s.jitterAmp))
	}
	return d
}

// Merge composes several scenarios into one named schedule. The first
// non-nil jitter wins; CPU factor tables multiply elementwise (padding with
// 1.0); everything else concatenates.
func Merge(name string, seed uint64, parts ...*Scenario) *Scenario {
	out := &Scenario{Name: name, Seed: seed}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if len(p.CPUFactors) > len(out.CPUFactors) {
			grown := make([]float64, len(p.CPUFactors))
			for i := range grown {
				grown[i] = 1
			}
			copy(grown, out.CPUFactors)
			out.CPUFactors = grown
		}
		for i, f := range p.CPUFactors {
			out.CPUFactors[i] *= f
		}
		out.Ramps = append(out.Ramps, p.Ramps...)
		if out.Jitter == nil && p.Jitter != nil {
			j := *p.Jitter
			out.Jitter = &j
		}
		out.Slowdowns = append(out.Slowdowns, p.Slowdowns...)
		out.PhaseShifts = append(out.PhaseShifts, p.PhaseShifts...)
		out.Crashes = append(out.Crashes, p.Crashes...)
		out.Partitions = append(out.Partitions, p.Partitions...)
		if out.FlushLoss == nil && p.FlushLoss != nil {
			l := *p.FlushLoss
			out.FlushLoss = &l
		}
		if out.Arrivals == nil && p.Arrivals != nil {
			a := *p.Arrivals
			out.Arrivals = &a
		}
	}
	return out
}

// PresetNames lists the built-in scenario vocabulary.
var PresetNames = []string{"hetero", "ramp", "jitter", "noisy", "phased", "storm", "crash", "flaky", "partition", "poisson", "diurnal", "burst"}

// Preset builds one of the named scenarios for a cluster of the given size.
// Presets are seed-driven where randomness is involved (heterogeneous
// factors, jitter stream), so the same (name, nodes, seed) triple always
// yields the same schedule.
func Preset(name string, nodes int, seed uint64) (*Scenario, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("scenario: preset needs a positive node count")
	}
	switch strings.ToLower(name) {
	case "hetero":
		// Heterogeneous cluster: node 0 (the master JVM) stays nominal,
		// workers get seeded speeds in [0.55, 0.95).
		rng := xrand.New(seed).Derive(101)
		f := make([]float64, nodes)
		f[0] = 1
		for i := 1; i < nodes; i++ {
			f[i] = 0.55 + 0.4*rng.Float64()
		}
		return &Scenario{Name: "hetero", Seed: seed, CPUFactors: f}, nil
	case "ramp":
		// Congestion building up: latency quadruples and bandwidth halves
		// over the first 1.5 s of the run.
		return &Scenario{Name: "ramp", Seed: seed, Ramps: []Ramp{
			{Param: RampLatency, Start: 100 * sim.Millisecond, End: 1500 * sim.Millisecond, From: 1, To: 4},
			{Param: RampBandwidth, Start: 100 * sim.Millisecond, End: 1500 * sim.Millisecond, From: 1, To: 0.5},
		}}, nil
	case "jitter":
		// Per-message latency noise up to 2x the Fast Ethernet base latency.
		return &Scenario{Name: "jitter", Seed: seed,
			Jitter: &Jitter{Amplitude: 240 * sim.Microsecond}}, nil
	case "noisy":
		// Noisy neighbors: two staggered transient slowdowns plus a relapse.
		n1, n2 := 1%nodes, 2%nodes
		return &Scenario{Name: "noisy", Seed: seed, Slowdowns: []Slowdown{
			{Node: n1, At: 150 * sim.Millisecond, Duration: 400 * sim.Millisecond, Factor: 0.30},
			{Node: n2, At: 700 * sim.Millisecond, Duration: 400 * sim.Millisecond, Factor: 0.25},
			{Node: n1, At: 1400 * sim.Millisecond, Duration: 300 * sim.Millisecond, Factor: 0.35},
		}}, nil
	case "phased":
		// Workload phase shifts every 120 ms for phase-aware workloads.
		var shifts []PhaseShift
		for i := 1; i <= 8; i++ {
			shifts = append(shifts, PhaseShift{At: sim.Time(i) * 120 * sim.Millisecond, Phase: i})
		}
		return &Scenario{Name: "phased", Seed: seed, PhaseShifts: shifts}, nil
	case "storm":
		// Everything at once.
		var parts []*Scenario
		for _, n := range []string{"hetero", "ramp", "jitter", "noisy", "phased"} {
			p, err := Preset(n, nodes, seed)
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		}
		return Merge("storm", seed, parts...), nil
	case "crash":
		// Worker crashes: node 1 goes down for half a second and comes back;
		// on clusters of three or more, node 2 later dies for good. Clusters
		// without workers have nothing to crash.
		sc := &Scenario{Name: "crash", Seed: seed}
		if nodes > 1 {
			sc.Crashes = append(sc.Crashes, Crash{Node: 1, At: 200 * sim.Millisecond, Restart: 700 * sim.Millisecond})
		}
		if nodes > 2 {
			sc.Crashes = append(sc.Crashes, Crash{Node: 2, At: 900 * sim.Millisecond, Restart: 0})
		}
		return sc, nil
	case "flaky":
		// Lossy profiling path: 15% of dedicated OAL flushes dropped, 10%
		// duplicated. Exercises flush retry/backoff and master-side dedup.
		return &Scenario{Name: "flaky", Seed: seed,
			FlushLoss: &FlushLoss{DropProb: 0.15, DupProb: 0.10, Salt: 0xf1a}}, nil
	case "partition":
		// The upper half of the cluster is cut off from the master twice,
		// briefly. Crossing protocol traffic is held until the heal;
		// crossing flushes are dropped.
		if nodes < 2 {
			return &Scenario{Name: "partition", Seed: seed}, nil
		}
		var group []int
		for i := (nodes + 1) / 2; i < nodes; i++ {
			group = append(group, i)
		}
		return &Scenario{Name: "partition", Seed: seed, Partitions: []Partition{
			{At: 300 * sim.Millisecond, Duration: 250 * sim.Millisecond, Nodes: group},
			{At: 1100 * sim.Millisecond, Duration: 200 * sim.Millisecond, Nodes: group},
		}}, nil
	case "poisson":
		// Steady open-loop traffic: flat Poisson arrivals for 2 s.
		return &Scenario{Name: "poisson", Seed: seed, Arrivals: &Arrivals{
			Kind: ArrivePoisson, Rate: 4000, Horizon: 2 * sim.Second}}, nil
	case "diurnal":
		// Day/night traffic: two full cycles between 20% and 100% of peak.
		return &Scenario{Name: "diurnal", Seed: seed, Arrivals: &Arrivals{
			Kind: ArriveDiurnal, Rate: 6000, Horizon: 2 * sim.Second,
			Period: sim.Second, Trough: 0.2}}, nil
	case "burst":
		// Flash crowds: calm baseline with 4x bursts every half second.
		return &Scenario{Name: "burst", Seed: seed, Arrivals: &Arrivals{
			Kind: ArriveBurst, Rate: 2500, Horizon: 2 * sim.Second,
			BurstEvery: 500 * sim.Millisecond, BurstLen: 120 * sim.Millisecond,
			BurstFactor: 4}}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown preset %q (have %s)", name, strings.Join(PresetNames, ", "))
	}
}

// Parse builds a scenario from a list of preset names merged in order,
// separated by "," or "+" ("crash+burst" and "crash,burst" are the same
// combo — "+" reads naturally for failure×arrival pairings on a command
// line). "", "none" and "off" yield nil.
func Parse(spec string, nodes int, seed uint64) (*Scenario, error) {
	spec = strings.TrimSpace(spec)
	switch strings.ToLower(spec) {
	case "", "none", "off":
		return nil, nil
	}
	names := strings.Split(strings.ReplaceAll(spec, "+", ","), ",")
	if len(names) == 1 {
		return Preset(names[0], nodes, seed)
	}
	parts := make([]*Scenario, 0, len(names))
	for _, n := range names {
		p, err := Preset(strings.TrimSpace(n), nodes, seed)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return Merge(spec, seed, parts...), nil
}
