package experiments

import (
	"testing"

	"jessica2/internal/core"
	"jessica2/internal/gos"
	"jessica2/internal/sim"
	"jessica2/internal/sticky"
)

// TestProbeResolution inspects invariant mining and sticky-set resolution
// on a Barnes-Hut run (development probe).
func TestProbeResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	fp := footprintConfig(false)
	fp.EagerResolve = true
	fp.Resolver = sticky.DefaultResolverConfig()
	out := Run(Spec{App: AppBarnesHut, Scale: 4, Nodes: 1, Threads: 1,
		Tracking: gos.TrackingOff, Rate: 4,
		Stack:     &core.StackConfig{Gap: 16 * sim.Millisecond, Lazy: true},
		Footprint: fp})
	t.Logf("eager: resolutions=%d resolveCPU=%v stackCPU=%v activations=%d",
		out.Profiler.Resolutions, out.Profiler.ResolveCPU,
		out.Profiler.StackCPU, out.Profiler.StackActivations)
	inv := out.Profiler.Invariants(0)
	t.Logf("invariants: %d", len(inv))
	for i, r := range inv {
		if i > 8 {
			break
		}
		t.Logf("  depth=%d slot=%d survived=%d class=%s", r.Depth, r.Slot, r.Survived, r.Obj.Class.Name)
	}
	foot := out.Profiler.Footprint(0)
	t.Logf("footprint: %v (total %d bytes)", foot, foot.Total())
	res := sticky.Resolve(inv, foot, sticky.DefaultResolverConfig())
	t.Logf("resolution: objs=%d bytes=%d visited=%d landmarks=%d cost=%v",
		len(res.Objects), res.Bytes, res.Visited, res.LandmarksMet, res.Cost)
	for _, c := range res.PerClass.Classes() {
		t.Logf("  class %-8s %8d bytes", c, res.PerClass[c])
	}
}
