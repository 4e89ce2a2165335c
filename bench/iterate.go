package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"jessica2/internal/core"
	"jessica2/internal/dispatch"
	"jessica2/internal/experiments"
	"jessica2/internal/gos"
	"jessica2/internal/network"
	"jessica2/internal/profile"
	"jessica2/internal/session"
	"jessica2/internal/sim"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
	"jessica2/internal/workload"
)

// iteration is what one set-up-and-run of a workload measured and produced.
type iteration struct {
	setup, run time.Duration // host wall time
	simExec    sim.Time
	tcm        *tcm.Map // nil when tracking is off
	// terminal counts requests that reached a terminal state; epochs the
	// policy boundaries processed.
	terminal, epochs int
	// values holds the sim_* outcomes and the layer counters.
	values map[string]float64
	digest uint64
	// problems lists the output checks this iteration failed.
	problems []string
}

// references are the reference runs paper-bh's simulated outcomes are
// measured against, made once per pass in the check phase.
type references struct {
	unprofiledExec sim.Time // the same run with tracking and profilers off
	fullTCM        *tcm.Map // the same run at full sampling, no adaptation
}

// runIteration sets a session up from rc, runs it to completion, makes the
// end-of-run calls, and checks and reads what it produced. Host time covers
// only the calls into the program: set-up from session.New to SetPolicy,
// run from the first Step or Run to the last end-of-run call.
func runIteration(rc runConfig, seed uint64, refs *references, tr *tracer) (*iteration, error) {
	it := &iteration{}
	start := time.Now()
	var s *session.Session
	tr.span("session.new_ms", func() {
		s = session.New(session.Config{
			Kernel: rc.kernel, Scenario: rc.scenario, Epoch: rc.epoch,
			Profile: session.ProfileIO{Save: rc.saveProfile},
		})
	})
	if err := s.Err(); err != nil {
		return nil, err
	}
	// Open-loop workloads get their arrival schedule from the benchmark,
	// exactly as Launch would materialize it from the scenario.
	ol, serving := rc.load.(workload.OpenLoop)
	scheduled := 0
	if serving {
		tr.span("scenario.schedule_ms", func() {
			sched := rc.scenario.Arrivals.Schedule(rc.scenario.Seed)
			scheduled = len(sched)
			ol.SetSchedule(sched)
		})
	}
	var err error
	tr.span("workload.launch_ms", func() { err = s.Launch(rc.load, workload.Params{Threads: rc.threads, Seed: seed}) })
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	var prof *core.Profiler
	if rc.profiling != nil {
		tr.span("core.attach_ms", func() { prof, err = s.AttachProfiling(*rc.profiling) })
		if err != nil {
			return nil, fmt.Errorf("attach profiling: %w", err)
		}
	}
	if rc.policy != nil {
		var p session.Policy = rc.policy
		if tr != nil {
			p = timedPolicy{Policy: p, tr: tr}
		}
		if err := s.SetPolicy(p); err != nil {
			return nil, fmt.Errorf("set policy: %w", err)
		}
	}
	it.setup = time.Since(start)

	runStart := time.Now()
	tr.span("session.run_ms", func() {
		if rc.policy == nil {
			_, err = s.Run()
			return
		}
		// Stepping epoch by epoch is what Run does with a policy installed;
		// the benchmark loops itself to time each step.
		for done := false; !done && err == nil; {
			tr.span("session.step_ms", func() { done, err = s.Step(rc.epoch) })
		}
	})
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	k := s.Kernel()
	var m *tcm.Map
	if rc.kernel.Tracking != gos.TrackingOff {
		tr.span("tcm.build_ms", func() { m = s.TCMNow() })
	}
	var serve *workload.ServeStats
	if serving {
		tr.span("workload.serve_stats_ms", func() { serve = ol.ServeStatsInto(nil, s.ExecTime()) })
	}
	var profBytes []byte
	var profBack *profile.Profile
	if rc.saveProfile {
		var p *profile.Profile
		tr.span("profile.capture_ms", func() { p, err = s.CapturedProfile() })
		if err != nil {
			return nil, fmt.Errorf("capture profile: %w", err)
		}
		tr.span("profile.encode_ms", func() { profBytes = profile.Encode(p) })
		tr.span("profile.decode_ms", func() { profBack, err = profile.Decode(profBytes) })
		if err != nil {
			return nil, fmt.Errorf("decode profile: %w", err)
		}
	}
	var outBytes []byte
	var outBack *experiments.Out
	if rc.spec != nil {
		out := &experiments.Out{
			Spec: *rc.spec, Exec: s.ExecTime(), Stats: k.Stats(), Net: k.Net.Stats(),
			TCM: m, TCMTime: k.Master().ComputeTime(), Profiler: prof, Footprints: footprints(prof),
		}
		tr.span("dispatch.encode_ms", func() { outBytes, err = dispatch.EncodeOut(out) })
		if err != nil {
			return nil, fmt.Errorf("encode out: %w", err)
		}
		tr.span("dispatch.decode_ms", func() { outBack, err = dispatch.DecodeOut(outBytes) })
		if err != nil {
			return nil, fmt.Errorf("decode out: %w", err)
		}
	}
	it.run = time.Since(runStart)

	// Checks and reads happen outside the timed calls.
	if err := s.Finished(); err != nil {
		it.problems = append(it.problems, fmt.Sprintf("session not finished: %v", err))
	}
	if m != nil {
		if err := checkTCM(m); err != nil {
			it.problems = append(it.problems, err.Error())
		}
	}
	if serve != nil {
		if err := checkConservation(serve, scheduled); err != nil {
			it.problems = append(it.problems, err.Error())
		}
	}
	if profBack != nil && !bytes.Equal(profile.Encode(profBack), profBytes) {
		it.problems = append(it.problems, "profile codec: decoded profile re-encodes differently")
	}
	if outBack != nil {
		if again, err := dispatch.EncodeOut(outBack); err != nil || !bytes.Equal(again, outBytes) {
			it.problems = append(it.problems, fmt.Sprintf("dispatch codec: decoded Out re-encodes differently (err %v)", err))
		}
	}

	it.simExec = s.ExecTime()
	it.tcm = m
	it.epochs = s.Epochs()
	v := make(map[string]float64)
	if serve != nil {
		it.terminal = serve.Completed + int(serve.Shed+serve.DeadlineExceeded+serve.FailedFast)
		v["sim_p50_ms"] = serve.LatencyP50.Milliseconds()
		v["sim_p99_ms"] = serve.LatencyP99.Milliseconds()
		v["sim_slo_goodput_per_s"] = serve.SLOGoodputPerSec
		v["failed_pct"] = 100 * ratio(float64(it.terminal-serve.Completed), float64(serve.Arrived))
	} else {
		v["sim_exec_ms"] = it.simExec.Milliseconds()
	}
	if refs != nil {
		v["sim_profiling_overhead_pct"] = 100 * (float64(it.simExec)/float64(refs.unprofiledExec) - 1)
		v["sim_tcm_accuracy_pct"] = 100 * tcm.Accuracy(tcm.DistanceABS(m, refs.fullTCM))
	}
	readCounters(v, s, prof, serve)
	v["profile.bytes"] = float64(len(profBytes))
	v["dispatch.bytes"] = float64(len(outBytes))
	it.values = v
	it.digest = digest(v)
	return it, nil
}

// makeReferences runs paper-bh's reference configurations through the same
// session path: without tracking or profilers, for the simulated profiling
// overhead, and at full sampling without adaptation, for TCM accuracy (the
// reference of the paper's Figure 9).
func makeReferences(spec experiments.Spec) (*references, error) {
	bare := spec
	bare.Tracking, bare.Rate = gos.TrackingOff, 0
	bare.Stack, bare.Footprint, bare.Adaptive = nil, nil, nil
	unprof, err := runIteration(specConfig(bare), spec.Seed, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("unprofiled reference: %w", err)
	}
	full := spec
	full.Stack, full.Footprint, full.Adaptive = nil, nil, nil
	fullRun, err := runIteration(specConfig(full), spec.Seed, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("full-rate reference: %w", err)
	}
	return &references{unprofiledExec: unprof.simExec, fullTCM: fullRun.tcm}, nil
}

// footprints reads the final per-thread sticky-set footprints, as
// experiments.Run reports them.
func footprints(prof *core.Profiler) map[int]sticky.Footprint {
	if prof == nil || len(prof.Footprinters) == 0 {
		return nil
	}
	out := make(map[int]sticky.Footprint, len(prof.Footprinters))
	for tid, fp := range prof.Footprinters {
		out[tid] = fp.Footprint()
	}
	return out
}

// readCounters fills v with the layer counters of a finished session. A
// layer the run did not exercise reads 0.
func readCounters(v map[string]float64, s *session.Session, prof *core.Profiler, serve *workload.ServeStats) {
	k := s.Kernel()
	ks, ns, fs := k.Stats(), k.Net.Stats(), k.FailureStats()
	f := func(x int64) float64 { return float64(x) }
	const kb = 1024.0

	v["gos.accesses"] = f(ks.Checks)
	v["gos.faults"] = f(ks.Faults)
	v["gos.fault_kb"] = f(ks.FaultBytes) / kb
	v["gos.false_invalid_ratio"] = ratio(f(ks.FalseInvalidHit), f(ks.Faults+ks.FalseInvalidHit))
	v["gos.diff_msgs"] = f(ks.DiffMessages)
	v["gos.lock_acquires"] = f(ks.LockAcquires)
	v["gos.barriers"] = f(ks.Barriers)
	v["gos.intervals"] = f(ks.Intervals)
	v["gos.home_migrations"] = f(ks.HomeMigrations)

	var msgs int64
	for _, n := range ns.Messages {
		msgs += n
	}
	v["network.msgs"] = f(msgs)
	v["network.kb"] = f(ns.TotalBytes()) / kb
	v["network.gos_kb"] = f(ns.CatBytes(network.CatGOSData)) / kb
	v["network.control_kb"] = f(ns.CatBytes(network.CatControl)) / kb
	v["network.oal_kb"] = f(ns.CatBytes(network.CatOAL)) / kb
	v["network.migration_kb"] = f(ns.CatBytes(network.CatMigration)) / kb
	v["network.dropped"] = f(ns.Dropped)
	v["network.duplicated"] = f(ns.Duplicated)

	v["oal.records"] = f(ks.OALRecords)
	v["oal.entries"] = f(ks.OALEntries)
	v["oal.entries_per_kaccess"] = ratio(f(ks.OALEntries), f(ks.Checks)/1000)

	if k.Cfg.Tracking != gos.TrackingOff {
		master := k.Master()
		v["tcm.ingested_entries"] = f(master.IngestedEntries())
		v["tcm.objects"] = float64(len(master.Summary().Objs))
		v["tcm.sim_compute_ms"] = master.ComputeTime().Milliseconds()
	}

	if prof != nil {
		rate := prof.Cfg.Rate
		if c := prof.Controller; c != nil {
			rate = c.Rate()
			if c.Converged() {
				v["sampling.converged"] = 1
			}
		}
		v["sampling.final_rate"] = float64(rate)
		changes := 0
		for _, rc := range prof.RateTrace {
			if rc.From != rc.To {
				changes++
			}
		}
		v["sampling.rate_changes"] = float64(changes)
		v["stack.activations"] = f(prof.StackActivations)
		v["stack.sim_cpu_ms"] = prof.StackCPU.Milliseconds()
		var foot int64
		for _, fp := range prof.Footprinters {
			foot += fp.Footprint().Total()
		}
		v["sticky.footprint_kb"] = f(foot) / kb
	}

	acts := s.Actions()
	applied := 0
	for _, a := range acts {
		if a.Note == "" {
			applied++
		}
	}
	v["session.epochs"] = float64(s.Epochs())
	v["session.actions"] = float64(len(acts))
	v["session.action_applied_ratio"] = ratio(float64(applied), float64(len(acts)))
	v["migration.thread_moves"] = float64(len(s.MigrationEngine().History))

	if serve != nil {
		v["workload.arrived"] = float64(serve.Arrived)
		v["workload.completed"] = float64(serve.Completed)
		v["workload.in_slo"] = float64(serve.CompletedInSLO)
		if serve.Robust {
			v["robust.shed"] = f(serve.Shed)
			v["robust.expired"] = f(serve.DeadlineExceeded)
			v["robust.failed_fast"] = f(serve.FailedFast)
			v["robust.retried"] = f(serve.Retried)
			v["robust.hedged"] = f(serve.Hedged)
			v["robust.rerouted"] = f(serve.Rerouted)
			v["robust.breaker_opens"] = f(serve.BreakerOpens)
			v["robust.hedge_win_ratio"] = ratio(f(serve.HedgeWins), f(serve.Hedged))
			v["robust.useful_attempt_ratio"] = ratio(float64(serve.Completed), float64(serve.Completed)+f(serve.Wasted))
		}
	}

	v["failure.heartbeats"] = f(fs.HeartbeatsSent)
	v["failure.lease_expiries"] = f(fs.LeaseExpiries)
	v["failure.evacuations"] = f(fs.Evacuations)
	v["failure.flushes"] = f(fs.FlushesSent)
	v["failure.flush_retries"] = f(fs.FlushRetries)
	v["failure.lock_failovers"] = f(fs.LockFailovers)
	v["failure.lock_reclaims"] = f(fs.LockReclaims)
	v["failure.flush_ack_ratio"] = ratio(f(fs.FlushesAcked), f(fs.FlushesSent))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest hashes the simulated values, so two iterations of one seed can be
// compared in one number.
func digest(v map[string]float64) uint64 {
	keys := make([]string, 0, len(v))
	for name := range v {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	var b [8]byte
	for _, name := range keys {
		h.Write([]byte(name))
		bits := math.Float64bits(v[name])
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
