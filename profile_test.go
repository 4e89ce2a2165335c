package jessica2_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"jessica2"
)

// profileCaptureRun executes the closed-loop demo configuration (phased
// KVMix, 4 nodes, 8 threads) with profile capture armed and returns the
// captured artifact plus the session.
func profileCaptureRun(t *testing.T) (*jessica2.StoredProfile, *jessica2.Session) {
	t.Helper()
	cfg := profileRunConfig(t, 4)
	cfg.Profile = jessica2.ProfileIO{Save: true}
	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(clKVMix(), jessica2.Params{Threads: 8, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate}); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetPolicy(jessica2.NewRebalancePolicy()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	prof, err := sess.CapturedProfile()
	if err != nil {
		t.Fatal(err)
	}
	return prof, sess
}

// profileRunConfig is the shared cluster shape for the profile tests.
func profileRunConfig(t *testing.T, nodes int) jessica2.Config {
	t.Helper()
	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = nodes
	cfg.Epoch = 100 * jessica2.Millisecond
	scen, err := jessica2.ScenarioPreset("phased", nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = scen
	return cfg
}

// TestProfileCaptureContents: the captured artifact carries every section
// and the run's fingerprint.
func TestProfileCaptureContents(t *testing.T) {
	prof, sess := profileCaptureRun(t)
	want := jessica2.ProfileFingerprint{
		Workload: "KVMix", Scenario: "phased", Nodes: 4, Threads: 8, Seed: 42,
	}
	if prof.Fingerprint != want {
		t.Errorf("fingerprint = %+v, want %+v", prof.Fingerprint, want)
	}
	if sess.Fingerprint() != want {
		t.Errorf("Session.Fingerprint = %+v, want %+v", sess.Fingerprint(), want)
	}
	if prof.TCMThreads != 8 || len(prof.TCMCells) != 64 {
		t.Errorf("TCM %d threads / %d cells, want 8 / 64", prof.TCMThreads, len(prof.TCMCells))
	}
	if len(prof.Assignment) != 8 {
		t.Errorf("assignment has %d entries, want 8", len(prof.Assignment))
	}
	if len(prof.HotHomes) == 0 {
		t.Error("no hot-object homes captured")
	}
	if len(prof.Decisions) == 0 {
		t.Error("no applied decisions captured")
	}
	if prof.TCM().Total() == 0 {
		t.Error("captured TCM is empty")
	}
	// The byte encoding is deterministic and file round trips are exact.
	enc := jessica2.EncodeProfile(prof)
	if !bytes.Equal(enc, jessica2.EncodeProfile(prof)) {
		t.Error("EncodeProfile is not deterministic")
	}
	path := filepath.Join(t.TempDir(), "kvmix.j2pf")
	if err := jessica2.SaveProfile(path, prof); err != nil {
		t.Fatal(err)
	}
	back, err := jessica2.LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jessica2.EncodeProfile(back), enc) {
		t.Error("Save/Load round trip changed the encoding")
	}
}

// TestProfileCaptureLifecycle: capture requires an armed, finished session.
func TestProfileCaptureLifecycle(t *testing.T) {
	cfg := profileRunConfig(t, 4)
	sess := jessica2.NewSession(cfg) // Save not armed
	if err := sess.Launch(clKVMix(), jessica2.Params{Threads: 8, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.CapturedProfile(); err == nil {
		t.Fatal("CapturedProfile succeeded without Save armed")
	}
	cfg.Profile = jessica2.ProfileIO{Save: true}
	armed := jessica2.NewSession(cfg)
	if err := armed.Launch(clKVMix(), jessica2.Params{Threads: 8, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := armed.CapturedProfile(); err != jessica2.ErrNotFinished {
		t.Fatalf("CapturedProfile before completion: %v, want ErrNotFinished", err)
	}
}

// warmRun executes the demo configuration warm-started from prof under the
// profile-guided policy.
func warmRun(t *testing.T, prof *jessica2.StoredProfile) (*jessica2.Report, *jessica2.Session) {
	t.Helper()
	cfg := profileRunConfig(t, 4)
	cfg.Profile = jessica2.ProfileIO{Load: prof}
	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(clKVMix(), jessica2.Params{Threads: 8, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: jessica2.FullRate}); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetPolicy(jessica2.NewWarmStartPolicy(prof)); err != nil {
		t.Fatal(err)
	}
	rep := runReport(t, sess)
	return rep, sess
}

// TestWarmStartEndToEnd: a warm-started same-fingerprint run accepts the
// profile, replays its placement knowledge, and spends strictly less
// profiling budget than the cold run that recorded it.
func TestWarmStartEndToEnd(t *testing.T) {
	prof, coldSess := profileCaptureRun(t)
	coldRep, err := coldSess.Report()
	if err != nil {
		t.Fatal(err)
	}
	rep, sess := warmRun(t, prof)
	if w := sess.ProfileWarning(); w != "" {
		t.Fatalf("matching load produced a warning: %s", w)
	}
	// The warm policy must have dropped the rate to its floor (the
	// divergence gate closes on the seeded prior) and replayed homes.
	var floorSet, replayed bool
	for _, a := range sess.Actions() {
		switch act := a.Action.(type) {
		case jessica2.SetSamplingRate:
			if act.Rate == 1 {
				floorSet = true
			}
		case jessica2.RehomeObject:
			if a.Note == "" && a.Epoch == 1 {
				replayed = true
			}
		}
	}
	if !floorSet {
		t.Error("warm run never dropped to the floor sampling rate")
	}
	if !replayed {
		t.Error("warm run applied no stored home replays at epoch 1")
	}
	coldLogs := coldRep.KernelStats().CorrelationLogs
	warmLogs := rep.KernelStats().CorrelationLogs
	if warmLogs >= coldLogs {
		t.Errorf("warm run logged %d correlations, cold %d — no budget saved", warmLogs, coldLogs)
	}
	t.Logf("correlation logs: cold=%d warm=%d (%.1f%%), warm exec=%v cold exec=%v",
		coldLogs, warmLogs, 100*float64(warmLogs)/float64(coldLogs),
		rep.ExecTime(), coldRep.ExecTime())
}

// TestProfileFingerprintMismatch: loading a profile recorded under any
// different configuration degrades to a cold start — warning set, sticky
// Err NOT set, run byte-identical to one that never configured a load.
func TestProfileFingerprintMismatch(t *testing.T) {
	prof, _ := profileCaptureRun(t)

	type launch struct {
		workload jessica2.Workload
		threads  int
		seed     uint64
	}
	base := func() launch { return launch{clKVMix(), 8, 42} }
	cases := []struct {
		name string
		cfg  func(t *testing.T) jessica2.Config
		l    func() launch
	}{
		{"different seed", func(t *testing.T) jessica2.Config { return profileRunConfig(t, 4) },
			func() launch { l := base(); l.seed = 43; return l }},
		{"different threads", func(t *testing.T) jessica2.Config { return profileRunConfig(t, 4) },
			func() launch { l := base(); l.threads = 6; return l }},
		{"different nodes", func(t *testing.T) jessica2.Config { return profileRunConfig(t, 2) }, base},
		{"different scenario", func(t *testing.T) jessica2.Config {
			cfg := profileRunConfig(t, 4)
			cfg.Scenario = nil
			return cfg
		}, base},
		{"different workload", func(t *testing.T) jessica2.Config { return profileRunConfig(t, 4) },
			func() launch {
				s := jessica2.NewSynthetic()
				s.Intervals, s.AccessesPerInterval = 3, 256
				return launch{s, 8, 42}
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(load *jessica2.StoredProfile) (string, *jessica2.Session) {
				cfg := tc.cfg(t)
				cfg.Profile = jessica2.ProfileIO{Load: load}
				sess := jessica2.NewSession(cfg)
				l := tc.l()
				if err := sess.Launch(l.workload, jessica2.Params{Threads: l.threads, Seed: l.seed}); err != nil {
					t.Fatal(err)
				}
				if err := sess.SetPolicy(jessica2.NewWarmStartPolicy(load)); err != nil {
					t.Fatal(err)
				}
				rep := runReport(t, sess)
				return rep.String(), sess
			}
			mismatched, sess := run(prof)
			if sess.Err() != nil {
				t.Fatalf("mismatch set the sticky session error: %v", sess.Err())
			}
			w := sess.ProfileWarning()
			if !strings.Contains(w, "mismatch") {
				t.Fatalf("ProfileWarning = %q, want a fingerprint-mismatch report", w)
			}
			cold, coldSess := run(nil)
			if coldSess.ProfileWarning() != "" {
				t.Fatalf("cold run reported a warning: %s", coldSess.ProfileWarning())
			}
			if mismatched != cold {
				t.Fatalf("rejected load was not a clean cold start:\n--- with rejected load\n%s\n--- cold\n%s", mismatched, cold)
			}
		})
	}
}

// TestProfileSaveGoldenIdentity: arming Config.Profile.Save (and capturing
// at the end) must leave every golden case byte-identical to an unarmed
// run — capture is pure observation, mirroring the injection-off identity
// gate.
func TestProfileSaveGoldenIdentity(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			plain := sessionTrace(t, c, nil, 42)
			armed := profileArmedTrace(t, c, 42)
			if plain != armed {
				t.Fatalf("Save-armed session diverged from plain run:\n--- armed\n%s\n--- plain\n%s", armed, plain)
			}
		})
	}
}

// profileArmedTrace is sessionTrace with profile capture armed and
// exercised: same stepping, same policy, plus CapturedProfile at the end.
func profileArmedTrace(t *testing.T, c goldenCase, seed uint64) string {
	t.Helper()
	cfg := jessica2.DefaultConfig()
	cfg.Kernel.Nodes = 4
	cfg.Profile = jessica2.ProfileIO{Save: true}
	sess := jessica2.NewSession(cfg)
	if err := sess.Launch(c.make(), jessica2.Params{Threads: 6, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	prof, err := sess.AttachProfiling(jessica2.ProfileConfig{Rate: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetPolicy(jessica2.NopPolicy{}); err != nil {
		t.Fatal(err)
	}
	for {
		done, err := sess.Step(10 * jessica2.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	captured, err := sess.CapturedProfile()
	if err != nil {
		t.Fatal(err)
	}
	if captured.TCMThreads != 6 {
		t.Fatalf("captured TCM dimension %d, want 6", captured.TCMThreads)
	}
	rep, err := sess.Report()
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	sb.WriteString(rep.String())
	fmt.Fprintf(&sb, "kernel: %+v\n", rep.KernelStats())
	fmt.Fprintf(&sb, "net: %v", rep.NetworkStats())
	fmt.Fprintf(&sb, "oal=%d gos=%d\n", rep.OALBytes(), rep.GOSBytes())
	sb.WriteString(rep.TCM().String())
	fmt.Fprintf(&sb, "stackcpu=%v\n", prof.StackCPU)
	return sb.String()
}
