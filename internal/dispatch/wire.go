// Wire format of the experiment dispatcher: versioned JSON envelopes that
// carry experiments.Spec jobs to workers and experiments.Out results back.
//
// Every payload travels inside an envelope naming the schema, the format
// version, the payload kind and a CRC32 fingerprint of the body, mirroring
// internal/profile's hardening: a worker or coordinator never trusts bytes
// off the network — foreign payloads (ErrSchema), newer revisions
// (ErrVersion), truncated or bit-flipped bodies (ErrCorrupt) and jobs whose
// spec fails validation (ErrInvalidSpec) come back as typed errors, never
// panics, and a corrupt result is indistinguishable from a lost one (the
// coordinator retries or reassigns either way).
//
// Encoding is exact: a decoded Out re-encodes to the same bytes the worker
// produced. Correlation-map cells and adaptive-trace distances travel as
// IEEE-754 bit patterns (uint64), so float values — including ones that did
// not come from the fixed-point accumulator, like the page-based baseline's
// — round-trip bit-identically, which is what makes a distributed
// regeneration byte-identical to a sequential one.
//
// A spec carries the session-side settings too (policy and epochs, failure
// detector, serving protection, the profile to load and the save flag), and
// an Out carries what a session run reports beyond the profiling totals:
// the analyzer time before the final TCM build, the pilot's calibration,
// the applied policy actions as typed records, serving stats, failure
// counters and live nodes, the profile warning and the captured profile.
// Every such field is omitted when zero, so a plain profiling run's
// encoding carries none of them. Stored profiles and serving stats travel
// as plain JSON numbers: their floats (rate-trace distances, goodputs) are
// always finite, and JSON carries finite floats exactly.
package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"jessica2/internal/core"
	"jessica2/internal/experiments"
	"jessica2/internal/gos"
	"jessica2/internal/network"
	"jessica2/internal/sampling"
	"jessica2/internal/sim"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
)

// WireSchema identifies this module's dispatch protocol; anything else in
// an envelope's schema field is rejected with ErrSchema.
const WireSchema = "jessica2/dispatch"

// WireVersion is the current wire revision. Coordinator and workers must
// run the same revision: the fleet is one build fanned out, not a
// long-lived deployment, so the format is forward-incompatible by design.
// Revision 2 added the session-side fields; a revision-1 worker would drop
// them silently and run a policy job as a plain one, so it gets ErrVersion
// instead.
const WireVersion = 2

// Typed decode errors; match with errors.Is.
var (
	// ErrSchema rejects envelopes that are not dispatch payloads at all.
	ErrSchema = errors.New("dispatch: wire schema mismatch")
	// ErrVersion rejects envelopes from a different wire revision.
	ErrVersion = errors.New("dispatch: unsupported wire version")
	// ErrCorrupt rejects malformed, truncated or bit-flipped payloads
	// (JSON syntax, CRC or structural check failure).
	ErrCorrupt = errors.New("dispatch: corrupt wire payload")
	// ErrInvalidSpec rejects a well-formed job whose spec fails
	// experiments.Spec.Validate; the validation error is wrapped too.
	ErrInvalidSpec = errors.New("dispatch: invalid job spec")
)

// Envelope kinds.
const (
	kindJob = "job"
	kindOut = "out"
)

// envelope is the versioned self-describing wrapper every payload rides in.
type envelope struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// CRC is the IEEE CRC32 of the raw Body bytes: a fingerprint that
	// catches truncation and corruption JSON syntax alone would miss.
	CRC  uint32          `json:"crc"`
	Body json.RawMessage `json:"body"`
}

// seal wraps body in an envelope of the given kind.
func seal(kind string, body any) ([]byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("dispatch: encoding %s body: %w", kind, err)
	}
	return json.Marshal(envelope{
		Schema:  WireSchema,
		Version: WireVersion,
		Kind:    kind,
		CRC:     crc32.ChecksumIEEE(raw),
		Body:    raw,
	})
}

// open validates an envelope of the expected kind and returns its body.
func open(data []byte, kind string) (json.RawMessage, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if env.Schema != WireSchema {
		return nil, fmt.Errorf("%w: schema %q", ErrSchema, env.Schema)
	}
	if env.Version != WireVersion {
		return nil, fmt.Errorf("%w: wire version %d, this build speaks %d",
			ErrVersion, env.Version, WireVersion)
	}
	if env.Kind != kind {
		return nil, fmt.Errorf("%w: payload kind %q, want %q", ErrCorrupt, env.Kind, kind)
	}
	if crc32.ChecksumIEEE(env.Body) != env.CRC {
		return nil, fmt.Errorf("%w: body CRC mismatch", ErrCorrupt)
	}
	return env.Body, nil
}

// Lease is one job assignment: which submission-index job, under which
// fencing epoch, and the token naming this particular grant. The epoch
// increments every time the job is (re)assigned, and the token embeds it,
// so a result fetched under a superseded grant — a slow worker finishing
// after its lease expired and the job was handed elsewhere — is rejected
// at the coordinator by token mismatch, never applied.
type Lease struct {
	Job   int    `json:"job"`
	Epoch int    `json:"epoch"`
	Token string `json:"token"`
}

// wireJob is a job envelope body.
type wireJob struct {
	Lease Lease            `json:"lease"`
	Spec  experiments.Spec `json:"spec"`
}

// EncodeJob serializes one job assignment. The Spec is carried as plain
// JSON: every field — scenario schedules included — is exported value data,
// and Go's float64 JSON encoding round-trips exactly.
func EncodeJob(l Lease, spec experiments.Spec) ([]byte, error) {
	return seal(kindJob, wireJob{Lease: l, Spec: spec})
}

// DecodeJob parses a job envelope and validates its spec, so a worker
// rejects a job it could not run instead of failing it mid-run.
func DecodeJob(data []byte) (Lease, experiments.Spec, error) {
	body, err := open(data, kindJob)
	if err != nil {
		return Lease{}, experiments.Spec{}, err
	}
	var j wireJob
	if err := json.Unmarshal(body, &j); err != nil {
		return Lease{}, experiments.Spec{}, fmt.Errorf("%w: job body: %v", ErrCorrupt, err)
	}
	if err := j.Spec.Validate(); err != nil {
		return Lease{}, experiments.Spec{}, fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	return j.Lease, j.Spec, nil
}

// floatBits / floatFromBits move float64s over the wire as IEEE-754 bit
// patterns inside JSON uint64s: exact for every value (NaN and ±Inf
// included, which plain JSON numbers cannot carry at all).
func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// maxMapDim bounds the correlation-map dimension a decoder will allocate
// for, so a corrupt or hostile length cannot trigger a huge allocation.
const maxMapDim = 1 << 14

// wireMap is a correlation map on the wire: dimension plus every cell's
// IEEE-754 bit pattern, row-major with both symmetric mirrors.
type wireMap struct {
	N        int      `json:"n"`
	CellBits []uint64 `json:"cell_bits"`
}

func mapToWire(m *tcm.Map) *wireMap {
	if m == nil {
		return nil
	}
	return &wireMap{N: m.N(), CellBits: m.AppendCellBits(nil)}
}

func mapFromWire(w *wireMap, what string) (*tcm.Map, error) {
	if w == nil {
		return nil, nil
	}
	if w.N < 0 || w.N > maxMapDim || len(w.CellBits) != w.N*w.N {
		return nil, fmt.Errorf("%w: %s: %d cells for an %d×%d map",
			ErrCorrupt, what, len(w.CellBits), w.N, w.N)
	}
	return tcm.NewMapFromBits(w.N, w.CellBits), nil
}

// wireRateChange mirrors core.RateChange with the distance as IEEE-754
// bits so the adaptive trace round-trips byte-exactly.
type wireRateChange struct {
	At           int64  `json:"at"`
	From         int64  `json:"from"`
	To           int64  `json:"to"`
	DistanceBits uint64 `json:"distance_bits"`
	Converged    bool   `json:"converged"`
	Resampled    int    `json:"resampled"`
}

// wireProfiler is the serializable slice of a core.Profiler: the charged
// totals and the adaptive decision log. The live half — kernel pointer,
// per-thread samplers and footprinters — is meaningless off-host; a
// decoded Out carries a detached Profiler holding exactly these fields,
// which is everything the table and figure folds consume.
type wireProfiler struct {
	StackCPU         int64            `json:"stack_cpu"`
	StackActivations int64            `json:"stack_activations"`
	ResolveCPU       int64            `json:"resolve_cpu"`
	Resolutions      int64            `json:"resolutions"`
	RateTrace        []wireRateChange `json:"rate_trace,omitempty"`
}

// wireOut is an out envelope body.
type wireOut struct {
	Spec       experiments.Spec         `json:"spec"`
	Exec       int64                    `json:"exec"`
	Stats      gos.KernelStats          `json:"stats"`
	Net        network.Stats            `json:"net"`
	TCM        *wireMap                 `json:"tcm,omitempty"`
	TCMCost    tcm.BuildCost            `json:"tcm_cost"`
	TCMTime    int64                    `json:"tcm_time"`
	PageTCM    *wireMap                 `json:"page_tcm,omitempty"`
	Profiler   *wireProfiler            `json:"profiler,omitempty"`
	Footprints map[int]sticky.Footprint `json:"footprints,omitempty"`
	experiments.SessionOut
}

// EncodeOut serializes one run outcome. The output is a pure function of
// the Out's wire-visible fields (JSON struct fields are ordered, map keys
// are sorted), so encoding the same deterministic run on any host yields
// the same bytes — the identity gates compare encodings directly.
func EncodeOut(o *experiments.Out) ([]byte, error) {
	w := wireOut{
		Spec:       o.Spec,
		Exec:       int64(o.Exec),
		Stats:      o.Stats,
		Net:        o.Net,
		TCM:        mapToWire(o.TCM),
		TCMCost:    o.TCMCost,
		TCMTime:    int64(o.TCMTime),
		PageTCM:    mapToWire(o.PageTCM),
		Footprints: o.Footprints,
		SessionOut: o.SessionOut,
	}
	if p := o.Profiler; p != nil {
		wp := &wireProfiler{
			StackCPU:         int64(p.StackCPU),
			StackActivations: p.StackActivations,
			ResolveCPU:       int64(p.ResolveCPU),
			Resolutions:      p.Resolutions,
		}
		for _, rc := range p.RateTrace {
			wp.RateTrace = append(wp.RateTrace, wireRateChange{
				At:           int64(rc.At),
				From:         int64(rc.From),
				To:           int64(rc.To),
				DistanceBits: floatBits(rc.Distance),
				Converged:    rc.Converged,
				Resampled:    rc.Resampled,
			})
		}
		w.Profiler = wp
	}
	return seal(kindOut, w)
}

// DecodeOut parses an out envelope back into an experiments.Out. The
// returned Out's Profiler, when present, is detached: charged totals and
// the rate trace are restored, the live kernel-side state (samplers,
// footprinters, kernel pointer) is not — exactly the wireProfiler
// contract. Hostile input returns a typed error; it never panics.
func DecodeOut(data []byte) (*experiments.Out, error) {
	body, err := open(data, kindOut)
	if err != nil {
		return nil, err
	}
	var w wireOut
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, fmt.Errorf("%w: out body: %v", ErrCorrupt, err)
	}
	o := &experiments.Out{
		Spec:       w.Spec,
		Exec:       sim.Time(w.Exec),
		Stats:      w.Stats,
		Net:        w.Net,
		TCMCost:    w.TCMCost,
		TCMTime:    sim.Time(w.TCMTime),
		Footprints: w.Footprints,
		SessionOut: w.SessionOut,
	}
	if o.TCM, err = mapFromWire(w.TCM, "tcm"); err != nil {
		return nil, err
	}
	if o.PageTCM, err = mapFromWire(w.PageTCM, "page tcm"); err != nil {
		return nil, err
	}
	if wp := w.Profiler; wp != nil {
		p := &core.Profiler{
			StackCPU:         sim.Time(wp.StackCPU),
			StackActivations: wp.StackActivations,
			ResolveCPU:       sim.Time(wp.ResolveCPU),
			Resolutions:      wp.Resolutions,
		}
		for _, rc := range wp.RateTrace {
			p.RateTrace = append(p.RateTrace, core.RateChange{
				At:        sim.Time(rc.At),
				From:      sampling.Rate(rc.From),
				To:        sampling.Rate(rc.To),
				Distance:  floatFromBits(rc.DistanceBits),
				Converged: rc.Converged,
				Resampled: rc.Resampled,
			})
		}
		o.Profiler = p
	}
	return o, nil
}
