package core

import (
	"testing"

	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sampling"
	"jessica2/internal/sim"
	"jessica2/internal/stack"
	"jessica2/internal/sticky"
	"jessica2/internal/workload"
)

func TestStackCostsCost(t *testing.T) {
	if zero := stackCost(stack.Stats{}); zero != stackActivation {
		t.Fatalf("empty sample cost = %v, want activation only", zero)
	}
	full := stackCost(stack.Stats{FramesWalked: 3, RawCaptured: 4, SlotsExtracted: 5, SlotsCompared: 6})
	want := stackActivation + 3*stackWalkPerFrame + 4*stackRawPerSlot + 5*stackExtractPerSlot + 6*stackComparePerSlot
	if full != want {
		t.Fatalf("cost = %v, want %v", full, want)
	}
	// 8 us + 3×0.8 + 4×0.5 + 5×3 + 6×0.7 us: the calibrated Table V model.
	if full != 31600*sim.Nanosecond {
		t.Fatalf("cost = %v, want 31.6 us", full)
	}
}

func TestStackProfilerChargesCPU(t *testing.T) {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 2
	k := gos.NewKernel(cfg)
	s := workload.NewSynthetic()
	s.Intervals = 4
	s.AccessesPerInterval = 1024
	s.AccessCost = 2 * sim.Microsecond
	s.Launch(k, workload.Params{Threads: 2, Seed: 1})
	p := Attach(k, Config{Stack: &StackConfig{Gap: 1 * sim.Millisecond, Lazy: true}})
	k.Run()
	if p.StackActivations == 0 {
		t.Fatal("stack profiler never activated")
	}
	if p.StackCPU <= 0 {
		t.Fatal("no CPU charged for stack sampling")
	}
}

func TestStackProfilerMinesInvariantsMidRun(t *testing.T) {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 1
	k := gos.NewKernel(cfg)
	s := workload.NewSynthetic()
	s.Intervals = 6
	s.AccessesPerInterval = 2048
	s.AccessCost = 4 * sim.Microsecond
	s.Launch(k, workload.Params{Threads: 1, Seed: 2})
	p := Attach(k, Config{Stack: &StackConfig{Gap: 2 * sim.Millisecond, Lazy: true}})

	// Check invariants from inside the run: hook interval closes.
	found := false
	k.AddObserver(invariantChecker{p: p, found: &found})
	k.Run()
	if !found {
		t.Fatal("no stack invariants mined during the run")
	}
}

type invariantChecker struct {
	p     *Profiler
	found *bool
}

func (ic invariantChecker) OnAccess(t *gos.Thread, o *heap.Object, w, f bool) {}

func (ic invariantChecker) OnIntervalClose(t *gos.Thread) {
	if len(ic.p.Invariants(t.ID())) > 0 {
		*ic.found = true
	}
}

func TestAdaptiveDaemonConvergesAndResamples(t *testing.T) {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 4
	cfg.Tracking = gos.TrackingSampled
	k := gos.NewKernel(cfg)
	s := workload.NewSynthetic()
	s.Intervals = 24
	s.ObjectsPerThread = 512
	s.AccessesPerInterval = 4096
	s.AccessCost = 2 * sim.Microsecond
	s.Launch(k, workload.Params{Threads: 8, Seed: 3})
	ac := DefaultAdaptiveConfig()
	ac.Window = 10 * sim.Millisecond
	p := Attach(k, Config{Adaptive: &ac})
	k.Run()
	if len(p.RateTrace) == 0 {
		t.Fatal("controller made no decisions")
	}
	// Rates must be monotone non-decreasing.
	last := sampling.Rate(0)
	raised := false
	for _, rc := range p.RateTrace {
		if rc.To < rc.From {
			t.Fatalf("rate went down: %+v", rc)
		}
		if rc.To > rc.From {
			raised = true
			if rc.Resampled == 0 {
				t.Fatalf("rate change without resampling: %+v", rc)
			}
		}
		if rc.From < last {
			t.Fatal("trace out of order")
		}
		last = rc.From
	}
	if !raised {
		t.Fatal("controller never raised the rate from 1X")
	}
}

func TestAdaptiveConvergedStopsMoving(t *testing.T) {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 2
	cfg.Tracking = gos.TrackingSampled
	k := gos.NewKernel(cfg)
	s := workload.NewSynthetic()
	s.Intervals = 30
	s.AccessesPerInterval = 1024
	s.AccessCost = 2 * sim.Microsecond
	s.Launch(k, workload.Params{Threads: 4, Seed: 4})
	ac := DefaultAdaptiveConfig()
	ac.Window = 8 * sim.Millisecond
	ac.Threshold = 0.5 // generous: converge quickly
	p := Attach(k, Config{Adaptive: &ac})
	k.Run()
	if p.Controller == nil || !p.Controller.Converged() {
		t.Fatal("controller did not converge")
	}
	// After convergence the rate is frozen.
	conv := false
	for _, rc := range p.RateTrace {
		if conv && rc.To != rc.From {
			t.Fatal("rate moved after convergence")
		}
		if rc.Converged {
			conv = true
		}
	}
}

func TestFootprintersAttachPerThread(t *testing.T) {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 2
	k := gos.NewKernel(cfg)
	s := workload.NewSynthetic()
	s.Intervals = 3
	s.AccessesPerInterval = 512
	s.Launch(k, workload.Params{Threads: 4, Seed: 5})
	fpc := FootprintConfig{FootprinterConfig: sticky.DefaultFootprinterConfig()}
	fpc.Nonstop = true
	p := Attach(k, Config{Rate: sampling.FullRate, Footprint: &fpc})
	k.Run()
	if len(p.Footprinters) != 4 {
		t.Fatalf("footprinters = %d, want 4", len(p.Footprinters))
	}
	nonEmpty := 0
	for tid := 0; tid < 4; tid++ {
		if p.Footprint(tid).Total() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("all footprints empty")
	}
}

func TestEagerResolveCharges(t *testing.T) {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 1
	k := gos.NewKernel(cfg)
	s := workload.NewSynthetic()
	s.Intervals = 6
	s.AccessesPerInterval = 2048
	s.AccessCost = 4 * sim.Microsecond
	s.Launch(k, workload.Params{Threads: 1, Seed: 6})
	fpc := FootprintConfig{FootprinterConfig: sticky.DefaultFootprinterConfig(), EagerResolve: true,
		Resolver: sticky.DefaultResolverConfig()}
	fpc.Nonstop = true
	p := Attach(k, Config{
		Rate:      sampling.FullRate,
		Stack:     &StackConfig{Gap: 2 * sim.Millisecond, Lazy: true},
		Footprint: &fpc,
	})
	k.Run()
	if p.Resolutions == 0 {
		t.Fatal("eager resolver never ran")
	}
	if p.ResolveCPU <= 0 {
		t.Fatal("resolution cost not charged")
	}
}

func TestProfilerNilSubsystems(t *testing.T) {
	cfg := gos.DefaultConfig()
	cfg.Nodes = 1
	k := gos.NewKernel(cfg)
	s := workload.NewSynthetic()
	s.Intervals = 1
	s.AccessesPerInterval = 16
	s.Launch(k, workload.Params{Threads: 1, Seed: 8})
	p := Attach(k, Config{})
	k.Run()
	if p.Invariants(0) != nil {
		t.Fatal("invariants without stack profiler should be nil")
	}
	if p.Footprint(0) != nil {
		t.Fatal("footprint without footprinter should be nil")
	}
	res := p.Resolve(0)
	if res == nil || len(res.Objects) != 0 {
		t.Fatal("resolve without profilers should be empty, not nil")
	}
}
