package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"jessica2/internal/core"
	"jessica2/internal/experiments"
	"jessica2/internal/gos"
	"jessica2/internal/profile"
	"jessica2/internal/sampling"
	"jessica2/internal/scenario"
	"jessica2/internal/sim"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
)

// richSpec exercises every wire-visible field: TCM tracking, the
// page-based baseline map (float cells that never saw the fixed-point
// accumulator), the stack sampler, footprinting, and the adaptive
// controller (which populates Profiler.RateTrace).
func richSpec() experiments.Spec {
	ad := core.DefaultAdaptiveConfig()
	st := core.DefaultStackConfig()
	return experiments.Spec{
		App: experiments.AppKVMix, Scale: 16, Nodes: 4, Threads: 4, Seed: 11,
		Tracking: gos.TrackingSampled, Rate: 4, TransferOALs: true,
		Stack:    &st,
		Adaptive: &ad,
		Footprint: &core.FootprintConfig{FootprinterConfig: sticky.FootprinterConfig{
			MinAccesses: 2, RearmPeriod: 1 * sim.Millisecond,
			OnPhase: 100 * sim.Millisecond, OffPhase: 100 * sim.Millisecond,
			MinGap: 1, ArmCost: 80 * sim.Nanosecond,
			TrapBase: 150 * sim.Nanosecond, TrapPerKB: 1536 * sim.Nanosecond,
			EWMA: 0.5,
		}},
		PageTracker: true,
	}
}

// sessionSpec exercises the session-side fields: a rebalance policy whose
// epoch a pilot calibrates, the failure detector through a crash, the full
// serving protection stack on open-loop arrivals, and profile capture.
func sessionSpec(t *testing.T) experiments.Spec {
	scen, err := scenario.Parse("crash+burst", 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	return experiments.Spec{
		App: experiments.AppServe, Nodes: 4, Threads: 4, Seed: 7,
		Tracking: gos.TrackingSampled, Rate: sampling.FullRate, TransferOALs: true,
		Scenario: scen, Policy: "rebalance", Epochs: 4,
		Failure: gos.DefaultFailureConfig(), Protect: "full", SaveProfile: true,
	}
}

// TestOutRoundTripExact: decode∘encode is the identity on the wire form —
// the property the distributed identity gate rests on. Verified field by
// field against the original Out, then by re-encoding the decoded Out and
// comparing bytes.
func TestOutRoundTripExact(t *testing.T) {
	out := experiments.Run(richSpec())
	if out.TCM == nil || out.PageTCM == nil || out.Profiler == nil ||
		len(out.Profiler.RateTrace) == 0 || len(out.Footprints) == 0 {
		t.Fatal("rich spec did not populate every wire-visible field")
	}
	requireRoundTrip(t, out)

	out = experiments.Run(sessionSpec(t))
	if out.PilotExec == 0 || out.Epoch == 0 || out.Epochs == 0 || len(out.Actions) == 0 ||
		out.Serve == nil || !out.Serve.Robust || out.Failure == nil || out.Failure.LeaseExpiries == 0 ||
		out.LiveNodes == 0 || out.Captured == nil || out.AnalyzerTime == 0 {
		t.Fatal("session spec did not populate every session-side field")
	}
	requireRoundTrip(t, out)
}

// requireRoundTrip checks one Out's wire round trip field by field and then
// byte for byte.
func requireRoundTrip(t *testing.T, out *experiments.Out) {
	t.Helper()
	enc, err := EncodeOut(out)
	if err != nil {
		t.Fatalf("EncodeOut: %v", err)
	}
	dec, err := DecodeOut(enc)
	if err != nil {
		t.Fatalf("DecodeOut: %v", err)
	}

	if !specsEqual(t, dec.Spec, out.Spec) {
		t.Fatalf("Spec drifted:\n got %+v\nwant %+v", dec.Spec, out.Spec)
	}
	if dec.Exec != out.Exec || dec.TCMTime != out.TCMTime || dec.AnalyzerTime != out.AnalyzerTime ||
		dec.PilotExec != out.PilotExec || dec.Epoch != out.Epoch {
		t.Fatalf("times drifted: %+v vs %+v", dec, out)
	}
	if dec.Epochs != out.Epochs || !reflect.DeepEqual(dec.Actions, out.Actions) {
		t.Fatalf("policy log drifted: %d epochs, %d actions; want %d, %d",
			dec.Epochs, len(dec.Actions), out.Epochs, len(out.Actions))
	}
	if !reflect.DeepEqual(dec.Serve, out.Serve) || !reflect.DeepEqual(dec.Failure, out.Failure) ||
		dec.LiveNodes != out.LiveNodes || dec.ProfileWarning != out.ProfileWarning {
		t.Fatalf("serving or failure outcome drifted")
	}
	if (dec.Captured == nil) != (out.Captured == nil) ||
		out.Captured != nil && !bytes.Equal(profile.Encode(dec.Captured), profile.Encode(out.Captured)) {
		t.Fatalf("captured profile drifted")
	}
	if dec.Stats != out.Stats {
		t.Fatalf("kernel stats drifted")
	}
	if dec.Net != out.Net {
		t.Fatalf("network stats drifted")
	}
	if dec.TCMCost != out.TCMCost {
		t.Fatalf("TCM cost drifted")
	}
	for _, m := range []struct {
		name      string
		got, want *tcm.Map
	}{{"tcm", dec.TCM, out.TCM}, {"page tcm", dec.PageTCM, out.PageTCM}} {
		if m.want == nil {
			if m.got != nil {
				t.Fatalf("%s appeared on the wire", m.name)
			}
			continue
		}
		if m.got.N() != m.want.N() {
			t.Fatalf("%s dimension %d, want %d", m.name, m.got.N(), m.want.N())
		}
		gotBits, wantBits := m.got.AppendCellBits(nil), m.want.AppendCellBits(nil)
		for i := range wantBits {
			if gotBits[i] != wantBits[i] {
				t.Fatalf("%s cell %d: bits %x, want %x (float transport must be exact)",
					m.name, i, gotBits[i], wantBits[i])
			}
		}
	}
	gp, wp := dec.Profiler, out.Profiler
	if gp.StackCPU != wp.StackCPU || gp.StackActivations != wp.StackActivations ||
		gp.ResolveCPU != wp.ResolveCPU || gp.Resolutions != wp.Resolutions {
		t.Fatalf("profiler totals drifted: %+v vs %+v", gp, wp)
	}
	if len(gp.RateTrace) != len(wp.RateTrace) {
		t.Fatalf("rate trace length %d, want %d", len(gp.RateTrace), len(wp.RateTrace))
	}
	for i := range wp.RateTrace {
		g, w := gp.RateTrace[i], wp.RateTrace[i]
		if g != w || math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
			t.Fatalf("rate trace [%d]: %+v, want %+v", i, g, w)
		}
	}
	if len(dec.Footprints) != len(out.Footprints) {
		t.Fatalf("footprints: %d threads, want %d", len(dec.Footprints), len(out.Footprints))
	}
	for tid, want := range out.Footprints {
		got := dec.Footprints[tid]
		if len(got) != len(want) {
			t.Fatalf("footprint[%d] has %d classes, want %d", tid, len(got), len(want))
		}
		for class, bytes := range want {
			if got[class] != bytes {
				t.Fatalf("footprint[%d][%s] = %d, want %d", tid, class, got[class], bytes)
			}
		}
	}

	// The byte-level identity the dispatcher's gate compares.
	re, err := EncodeOut(dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(re, enc) {
		t.Fatalf("re-encoded bytes differ from the original encoding (%d vs %d bytes)", len(re), len(enc))
	}
}

// TestJobRoundTrip: lease and spec survive the job envelope, a warm-start
// spec's stored profile included.
func TestJobRoundTrip(t *testing.T) {
	lease := Lease{Job: 7, Epoch: 3, Token: "j7.e3.s42"}
	warm := sessionSpec(t)
	warm.Policy, warm.SaveProfile = "warmstart", false
	warm.LoadProfile = &profile.Profile{
		Fingerprint: profile.Fingerprint{Workload: "ServeMix", Scenario: "crash+burst", Nodes: 4, Threads: 4, Seed: 7},
		TCMThreads:  2,
		TCMCells:    []int64{0, 3, 3, 0},
		Assignment:  []int{0, 1},
		HotHomes:    []profile.HotHome{{Key: 5, Home: 1}},
		RateTrace:   []profile.RateChange{{At: sim.Millisecond, From: 1, To: 4, Distance: 1.0 / 3.0}},
		Decisions:   []profile.Decision{{Epoch: 1, At: sim.Millisecond, Kind: profile.DecisionRehomeObject, A: 5, B: 1}},
	}
	for _, spec := range []experiments.Spec{richSpec(), warm} {
		enc, err := EncodeJob(lease, spec)
		if err != nil {
			t.Fatalf("EncodeJob: %v", err)
		}
		gotLease, gotSpec, err := DecodeJob(enc)
		if err != nil {
			t.Fatalf("DecodeJob: %v", err)
		}
		if gotLease != lease {
			t.Fatalf("lease = %+v, want %+v", gotLease, lease)
		}
		if !specsEqual(t, gotSpec, spec) {
			t.Fatalf("spec drifted:\n got %+v\nwant %+v", gotSpec, spec)
		}
		if spec.LoadProfile != nil && !bytes.Equal(profile.Encode(gotSpec.LoadProfile), profile.Encode(spec.LoadProfile)) {
			t.Fatalf("stored profile drifted")
		}
	}
}

// specsEqual compares specs by their wire (JSON) form — the profiler
// configs hang off pointers, so == would compare addresses.
func specsEqual(t *testing.T, a, b experiments.Spec) bool {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	return bytes.Equal(aj, bj)
}

// mutateEnvelope decodes a sealed payload, applies f, and re-seals it
// without fixing the CRC — the raw-field tampering helper.
func mutateEnvelope(t *testing.T, data []byte, f func(*envelope)) []byte {
	t.Helper()
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("unwrapping test envelope: %v", err)
	}
	f(&env)
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatalf("re-wrapping test envelope: %v", err)
	}
	return out
}

// TestDecodeTypedErrors: every way a payload can be wrong maps to its
// typed error, and none of them panic.
func TestDecodeTypedErrors(t *testing.T) {
	good, err := EncodeJob(Lease{Job: 1, Epoch: 1, Token: "t"}, experiments.Spec{App: experiments.AppSOR, Nodes: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeJob(good); err != nil {
		t.Fatalf("DecodeJob(good) = %v", err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"not json", []byte("profile-store bytes, not dispatch"), ErrCorrupt},
		{"truncated", good[:len(good)/2], ErrCorrupt},
		{"foreign schema", mutateEnvelope(t, good, func(e *envelope) { e.Schema = "jessica2/profile" }), ErrSchema},
		{"future version", mutateEnvelope(t, good, func(e *envelope) { e.Version = WireVersion + 1 }), ErrVersion},
		{"wrong kind", mutateEnvelope(t, good, func(e *envelope) { e.Kind = kindOut }), ErrCorrupt},
		{"tampered body", mutateEnvelope(t, good, func(e *envelope) {
			// Change one digit: still valid JSON, but the CRC no longer matches.
			e.Body = bytes.Replace(e.Body, []byte(`"job":1`), []byte(`"job":2`), 1)
		}), ErrCorrupt},
		{"crc mismatch", mutateEnvelope(t, good, func(e *envelope) { e.CRC ^= 1 }), ErrCorrupt},
	}
	for _, tc := range cases {
		if _, _, err := DecodeJob(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: DecodeJob error = %v, want %v", tc.name, err, tc.want)
		}
	}
	// A well-formed job whose spec fails Validate is rejected on decode,
	// so a worker answers 400 instead of failing the lease mid-run.
	zeroNodes, err := EncodeJob(Lease{Job: 1, Epoch: 1, Token: "t"}, experiments.Spec{App: experiments.AppSOR, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeJob(zeroNodes); !errors.Is(err, ErrInvalidSpec) || !strings.Contains(err.Error(), "need at least one node") {
		t.Errorf("DecodeJob(zero-node spec) = %v, want %v naming the node count", err, ErrInvalidSpec)
	}
	srv := httptest.NewServer(NewWorker(nil).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/submit", "application/json", bytes.NewReader(zeroNodes))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("worker answered an invalid spec with %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
	// The same envelope validation guards results.
	if _, err := DecodeOut(good); !errors.Is(err, ErrCorrupt) {
		t.Errorf("DecodeOut(job envelope) = %v, want %v (kind mismatch)", err, ErrCorrupt)
	}
}

// TestDecodeOutBoundsMapDims: hostile map dimensions are rejected with
// ErrCorrupt before any allocation, not trusted into NewMapFromBits.
func TestDecodeOutBoundsMapDims(t *testing.T) {
	out := &experiments.Out{Spec: experiments.Spec{App: experiments.AppSOR}, TCM: tcm.NewMap(2)}
	enc, err := EncodeOut(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, tamper := range []struct {
		name string
		n    int
	}{
		{"negative dim", -1},
		{"oversized dim", maxMapDim + 1},
		{"cell count mismatch", 3},
	} {
		bad := mutateEnvelope(t, enc, func(e *envelope) {
			var w wireOut
			if err := json.Unmarshal(e.Body, &w); err != nil {
				t.Fatal(err)
			}
			w.TCM.N = tamper.n
			body, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			e.Body = body
			e.CRC = crcOf(body)
		})
		if _, err := DecodeOut(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeOut = %v, want %v", tamper.name, err, ErrCorrupt)
		}
	}
}

// TestFloatBitsExactForSpecials: the bit-pattern transport carries values
// plain JSON numbers cannot.
func TestFloatBitsExactForSpecials(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, 1.0 / 3.0} {
		if got := floatFromBits(floatBits(f)); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("round-trip of %v: bits %x -> %x", f, math.Float64bits(f), math.Float64bits(got))
		}
	}
}

// Compile-time check that the adaptive rate type still fits the wire's
// int64 transport (it is a defined integer type).
var _ = sampling.Rate(0)

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
