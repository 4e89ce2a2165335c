// Package dispatch is the sealed wire form of an experiments.Out: a
// versioned JSON envelope that carries one run outcome as bytes. The
// repository benchmark's round trip of paper-bh's Out is its only caller
// (its size is the bench's dispatch.bytes).
//
// The outcome travels inside an envelope naming the schema, the format
// version, the payload kind and a CRC32 fingerprint of the body, mirroring
// internal/profile's hardening: the decoder never trusts its input —
// foreign payloads (ErrSchema), other revisions (ErrVersion) and
// truncated, bit-flipped or structurally invalid bodies (ErrCorrupt) come
// back as typed errors, never panics.
//
// Encoding is exact: a decoded Out re-encodes to the same bytes.
// Correlation-map cells and adaptive-trace distances travel as IEEE-754
// bit patterns (uint64), so float values — including ones that did not
// come from the fixed-point accumulator, like the page-based baseline's —
// round-trip bit-identically.
//
// The Out's spec carries the session-side settings too (policy and
// epochs, failure detector, serving protection, the profile to load and
// the save flag), and the Out carries what a session run reports beyond
// the profiling totals: the analyzer time before the final TCM build, the
// pilot's calibration, the applied policy actions as typed records,
// serving stats, failure counters and live nodes, the profile warning and
// the captured profile. Every such field is omitted when zero, so a plain
// profiling run's encoding carries none of them. Stored profiles and
// serving stats travel as plain JSON numbers: their floats (rate-trace
// distances, goodputs) are always finite, and JSON carries finite floats
// exactly.
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
	"jessica2/internal/profile"
	"jessica2/internal/sampling"
	"jessica2/internal/sim"
	"jessica2/internal/sticky"
	"jessica2/internal/tcm"
)

// WireSchema identifies this codec's envelopes; anything else in an
// envelope's schema field is rejected with ErrSchema.
const WireSchema = "jessica2/dispatch"

// WireVersion is the current wire revision. Encoder and decoder must be
// the same revision, so the format is forward-incompatible by design.
// Revision 2 added the session-side fields; a revision-1 decoder would
// drop them silently, so it gets ErrVersion instead. Revision 3 dropped
// the profilers' cost-model fields, which are constants now; a revision-2
// decoder would read them as zero costs.
const WireVersion = 3

// Typed decode errors; match with errors.Is.
var (
	// ErrSchema rejects envelopes that are not dispatch payloads at all.
	ErrSchema = errors.New("dispatch: wire schema mismatch")
	// ErrVersion rejects envelopes from a different wire revision.
	ErrVersion = errors.New("dispatch: unsupported wire version")
	// ErrCorrupt rejects malformed, truncated or bit-flipped payloads
	// (JSON syntax, CRC or structural check failure).
	ErrCorrupt = errors.New("dispatch: corrupt wire payload")
)

// kindOut is the envelope kind of a run outcome, the only kind there is.
const kindOut = "out"

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

// seal wraps an outcome body in an envelope.
func seal(body *wireOut) ([]byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("dispatch: encoding %s body: %w", kindOut, err)
	}
	return json.Marshal(envelope{
		Schema:  WireSchema,
		Version: WireVersion,
		Kind:    kindOut,
		CRC:     crc32.ChecksumIEEE(raw),
		Body:    raw,
	})
}

// open validates an outcome envelope and returns its body.
func open(data []byte) (json.RawMessage, error) {
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
	if env.Kind != kindOut {
		return nil, fmt.Errorf("%w: payload kind %q, want %q", ErrCorrupt, env.Kind, kindOut)
	}
	if crc32.ChecksumIEEE(env.Body) != env.CRC {
		return nil, fmt.Errorf("%w: body CRC mismatch", ErrCorrupt)
	}
	return env.Body, nil
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
// per-thread samplers and footprinters — is meaningless outside the run; a
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
// the same bytes — the bench's digest includes their count.
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
	return seal(&w)
}

// DecodeOut parses an out envelope back into an experiments.Out. The
// returned Out's Profiler, when present, is detached: charged totals and
// the rate trace are restored, the live kernel-side state (samplers,
// footprinters, kernel pointer) is not — exactly the wireProfiler
// contract. Hostile input returns a typed error; it never panics. A stored
// profile the Out carries must pass profile.Validate, or ErrCorrupt.
func DecodeOut(data []byte) (*experiments.Out, error) {
	body, err := open(data)
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
	for _, p := range []*profile.Profile{o.Spec.LoadProfile, o.Captured} {
		if p == nil {
			continue
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("%w: stored profile: %v", ErrCorrupt, err)
		}
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
