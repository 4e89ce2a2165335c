// Package profile is the versioned, deterministic profile store: it
// serializes a session's end-of-run profiling artifacts — the thread
// correlation map (fixed-point cells), per-thread sticky footprints, the
// adaptive sampling-rate trace, the per-epoch placement decisions, and a
// workload/scenario fingerprint — to a self-describing binary format, and
// loads them back for profile-guided warm starts (session.Config.Profile,
// session.WarmStartPolicy).
//
// The format is magic + version + fingerprint header + length-prefixed
// sections + CRC32 trailer, all little-endian. Encoding is a pure function
// of the Profile value (every map is sorted before it is written), so the
// same profile always produces the same bytes, and Encode→Decode is exact:
// TCM cells travel as the incremental builder's scaled fixed-point int64
// units and float64 fields travel as IEEE-754 bit patterns. Decoding
// rejects foreign files (ErrBadMagic), files from a newer format revision
// (ErrVersion), and anything truncated, bit-flipped or failing Validate
// (ErrCorrupt, via the CRC and per-field bounds checks) — it never panics
// on hostile input, which FuzzProfileDecode enforces.
package profile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"jessica2/internal/sampling"
	"jessica2/internal/sim"
	"jessica2/internal/tcm"
)

// Version is the current format revision. Decoders accept this revision
// only: the format is forward-incompatible by design (a stored profile is
// a cache, not an archive — regenerating one costs a single run).
const Version = 1

// magic identifies a jessica2 profile file.
var magic = [4]byte{'J', '2', 'P', 'F'}

// Typed decode/load errors. Decode wraps them with positional detail;
// match with errors.Is.
var (
	// ErrBadMagic rejects files that are not jessica2 profiles at all.
	ErrBadMagic = errors.New("profile: bad magic (not a jessica2 profile)")
	// ErrVersion rejects profiles written by a different format revision.
	ErrVersion = errors.New("profile: unsupported format version")
	// ErrCorrupt rejects truncated or bit-flipped payloads (CRC or
	// structural bounds-check failure).
	ErrCorrupt = errors.New("profile: corrupt payload")
)

// Fingerprint identifies the run configuration a profile was recorded
// under. Warm starts require an exact match: applying a placement recorded
// for different threads, nodes, seed or scenario would be worse than
// starting cold.
type Fingerprint struct {
	// Workload is the launched workload name ("," joined in launch order
	// for multi-workload sessions).
	Workload string
	// Scenario is the perturbation scenario name ("" when unperturbed).
	Scenario string
	// Nodes and Threads are the cluster and thread dimensions.
	Nodes, Threads int
	// Seed is the workload seed.
	Seed uint64
}

// Match reports whether two fingerprints identify the same configuration.
func (f Fingerprint) Match(other Fingerprint) bool { return f == other }

func (f Fingerprint) String() string {
	scen := f.Scenario
	if scen == "" {
		scen = "none"
	}
	return fmt.Sprintf("%s nodes=%d threads=%d seed=%d scenario=%s",
		f.Workload, f.Nodes, f.Threads, f.Seed, scen)
}

// HotHome is one stored hot-object home: the object's dense key and the
// node its home had converged to by the end of the recorded run. Object
// keys are stable across same-fingerprint runs (allocation order is
// deterministic), which is what makes replaying homes meaningful.
type HotHome struct {
	Key  int64
	Home int32
}

// ClassBytes is one class's byte share of a sticky footprint.
type ClassBytes struct {
	Class string
	Bytes int64
}

// ThreadFootprint is one thread's sticky-set footprint, classes ascending.
type ThreadFootprint struct {
	Thread  int32
	Classes []ClassBytes
}

// RateChange mirrors core.RateChange with the distance stored as IEEE-754
// bits so the trace round-trips byte-exactly.
type RateChange struct {
	At        sim.Time
	From, To  sampling.Rate
	Distance  float64
	Converged bool
	Resampled int32
}

// Decision kinds.
const (
	DecisionMigrateThread = uint8(iota)
	DecisionRehomeObject
	DecisionSetRate
)

// Decision is one applied per-epoch policy action from the recorded run:
// (Epoch, At, Kind, A, B) where A/B are (thread, node), (object, node) or
// (rate, 0) by kind.
type Decision struct {
	Epoch int32
	At    sim.Time
	Kind  uint8
	A, B  int64
}

// Profile is the end-of-run artifact a session persists and a warm start
// consumes.
type Profile struct {
	Fingerprint Fingerprint
	// TCMThreads is the correlation map dimension; TCMCells holds the N×N
	// cells row-major in the incremental builder's scaled fixed-point
	// units (both symmetric mirrors, exactly as accumulated).
	TCMThreads int
	TCMCells   []int64
	// Assignment is the end-of-run thread→node placement.
	Assignment []int
	// HotHomes are the shared objects' converged homes, key ascending.
	HotHomes []HotHome
	// Footprints are the per-thread sticky footprints, thread ascending.
	Footprints []ThreadFootprint
	// RateTrace is the adaptive controller's decision log.
	RateTrace []RateChange
	// Decisions are the applied per-epoch policy actions.
	Decisions []Decision
}

// Validate reports the first way p cannot describe a run of its own
// fingerprint: correlation cells that do not fill TCMThreads², or a
// placement entry or hot-object home outside [0, Fingerprint.Nodes). Every
// decoder that lets a stored profile into the program checks it, so an
// accepted profile's TCM and placement can be used without a panic.
func (p *Profile) Validate() error {
	// The bound keeps n*n from overflowing.
	if n := p.TCMThreads; n < 0 || n > math.MaxInt32 || len(p.TCMCells) != n*n {
		return fmt.Errorf("%d correlation cells for %d threads", len(p.TCMCells), n)
	}
	nodes := p.Fingerprint.Nodes
	for t, n := range p.Assignment {
		if n < 0 || n >= nodes {
			return fmt.Errorf("thread %d placed on node %d of %d", t, n, nodes)
		}
	}
	for _, h := range p.HotHomes {
		if h.Home < 0 || int(h.Home) >= nodes {
			return fmt.Errorf("object %d homed on node %d of %d", h.Key, h.Home, nodes)
		}
	}
	return nil
}

// TCM reconstructs the stored correlation map.
func (p *Profile) TCM() *tcm.Map {
	return tcm.NewMapFromFixed(p.TCMThreads, p.TCMCells)
}

// HomeOf returns the stored home for an object key (binary search over the
// ascending HotHomes list) and whether one is stored.
func (p *Profile) HomeOf(key int64) (int, bool) {
	lo, hi := 0, len(p.HotHomes)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.HotHomes[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.HotHomes) && p.HotHomes[lo].Key == key {
		return int(p.HotHomes[lo].Home), true
	}
	return 0, false
}

// --- encoding ----------------------------------------------------------------

// writer accumulates the little-endian payload.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Encoded sizes of Encode's fixed-width records.
const (
	hotHomeSize    = 8 + 4
	rateChangeSize = 8 + 8 + 8 + 8 + 1 + 4
	decisionSize   = 4 + 8 + 1 + 8 + 8
)

// encodedLen is the exact length of Encode(p), so Encode allocates its
// output once.
func encodedLen(p *Profile) int {
	n := len(magic) + 4 // version
	n += 4 + len(p.Fingerprint.Workload) + 4 + len(p.Fingerprint.Scenario) + 4 + 4 + 8
	n += 4 + 4 + 8*len(p.TCMCells)
	n += 4 + 4*len(p.Assignment)
	n += 4 + hotHomeSize*len(p.HotHomes)
	n += 4
	for _, fp := range p.Footprints {
		n += 4 + 4
		for _, c := range fp.Classes {
			n += 4 + len(c.Class) + 8
		}
	}
	n += 4 + rateChangeSize*len(p.RateTrace)
	n += 4 + decisionSize*len(p.Decisions)
	return n + 4 // CRC32 trailer
}

// Encode serializes the profile. The output is a pure function of p.
func Encode(p *Profile) []byte {
	w := writer{buf: make([]byte, 0, encodedLen(p))}
	w.buf = append(w.buf, magic[:]...)
	w.u32(Version)

	// Fingerprint header.
	w.str(p.Fingerprint.Workload)
	w.str(p.Fingerprint.Scenario)
	w.u32(uint32(p.Fingerprint.Nodes))
	w.u32(uint32(p.Fingerprint.Threads))
	w.u64(p.Fingerprint.Seed)

	// TCM cells (fixed point).
	w.u32(uint32(p.TCMThreads))
	w.u32(uint32(len(p.TCMCells)))
	for _, c := range p.TCMCells {
		w.i64(c)
	}

	// Placement.
	w.u32(uint32(len(p.Assignment)))
	for _, n := range p.Assignment {
		w.u32(uint32(n))
	}

	// Hot-object homes.
	w.u32(uint32(len(p.HotHomes)))
	for _, h := range p.HotHomes {
		w.i64(h.Key)
		w.u32(uint32(h.Home))
	}

	// Footprints.
	w.u32(uint32(len(p.Footprints)))
	for _, fp := range p.Footprints {
		w.u32(uint32(fp.Thread))
		w.u32(uint32(len(fp.Classes)))
		for _, c := range fp.Classes {
			w.str(c.Class)
			w.i64(c.Bytes)
		}
	}

	// Rate trace.
	w.u32(uint32(len(p.RateTrace)))
	for _, rc := range p.RateTrace {
		w.i64(int64(rc.At))
		w.i64(int64(rc.From))
		w.i64(int64(rc.To))
		w.f64(rc.Distance)
		if rc.Converged {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u32(uint32(rc.Resampled))
	}

	// Decisions.
	w.u32(uint32(len(p.Decisions)))
	for _, d := range p.Decisions {
		w.u32(uint32(d.Epoch))
		w.i64(int64(d.At))
		w.u8(d.Kind)
		w.i64(d.A)
		w.i64(d.B)
	}

	// CRC32 trailer over everything above (magic and version included, so
	// a bit flip anywhere in the file is caught).
	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

// --- decoding ----------------------------------------------------------------

// reader walks the payload with bounds checks; the first overrun latches
// err and every subsequent read returns zero.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, r.pos)
	}
}

func (r *reader) take(n int, what string) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.data) {
		r.fail(what)
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) u8(what string) uint8 {
	b := r.take(1, what)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32(what string) uint32 {
	b := r.take(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64(what string) uint64 {
	b := r.take(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64(what string) int64   { return int64(r.u64(what)) }
func (r *reader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

func (r *reader) str(what string) string {
	n := r.u32(what)
	b := r.take(int(n), what)
	if b == nil {
		return ""
	}
	return string(b)
}

// count reads a length prefix and rejects counts that could not possibly
// fit in the remaining payload (minSize bytes per element), so a corrupt
// length cannot trigger a huge allocation.
func (r *reader) count(minSize int, what string) int {
	n := int(r.u32(what))
	if r.err != nil {
		return 0
	}
	if n < 0 || n*minSize > len(r.data)-r.pos {
		r.fail(what + " count")
		return 0
	}
	return n
}

// Decode parses an encoded profile, verifying magic, version, CRC and
// Validate. Hostile input returns a typed error (ErrBadMagic, ErrVersion or
// ErrCorrupt); it never panics. Empty sections decode to nil slices — the
// canonical in-memory form — so Decode∘Encode is exact for profiles a
// session captures and Encode∘Decode is exact for every accepted input.
func Decode(data []byte) (*Profile, error) {
	if len(data) < len(magic)+4+4 { // magic + version + CRC minimum
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	if string(data[:4]) != string(magic[:]) {
		return nil, ErrBadMagic
	}
	// CRC trailer covers everything before it.
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	r := &reader{data: body, pos: 4}
	if v := r.u32("version"); v != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, v, Version)
	}

	p := &Profile{}
	p.Fingerprint.Workload = r.str("fingerprint workload")
	p.Fingerprint.Scenario = r.str("fingerprint scenario")
	p.Fingerprint.Nodes = int(r.u32("fingerprint nodes"))
	p.Fingerprint.Threads = int(r.u32("fingerprint threads"))
	p.Fingerprint.Seed = r.u64("fingerprint seed")

	p.TCMThreads = int(r.u32("tcm dimension"))
	if n := r.count(8, "tcm cells"); r.err == nil && n > 0 {
		p.TCMCells = make([]int64, n)
		for i := range p.TCMCells {
			p.TCMCells[i] = r.i64("tcm cell")
		}
	}

	if n := r.count(4, "assignment"); r.err == nil && n > 0 {
		p.Assignment = make([]int, n)
		for i := range p.Assignment {
			p.Assignment[i] = int(r.u32("assignment entry"))
		}
	}

	if n := r.count(12, "hot homes"); r.err == nil && n > 0 {
		p.HotHomes = make([]HotHome, n)
		for i := range p.HotHomes {
			p.HotHomes[i].Key = r.i64("hot home key")
			p.HotHomes[i].Home = int32(r.u32("hot home node"))
		}
	}

	if n := r.count(8, "footprints"); r.err == nil && n > 0 {
		p.Footprints = make([]ThreadFootprint, n)
		for i := range p.Footprints {
			p.Footprints[i].Thread = int32(r.u32("footprint thread"))
			cn := r.count(12, "footprint classes")
			if r.err != nil {
				break
			}
			if cn == 0 {
				continue
			}
			p.Footprints[i].Classes = make([]ClassBytes, cn)
			for j := range p.Footprints[i].Classes {
				p.Footprints[i].Classes[j].Class = r.str("footprint class")
				p.Footprints[i].Classes[j].Bytes = r.i64("footprint bytes")
			}
		}
	}

	if n := r.count(37, "rate trace"); r.err == nil && n > 0 {
		p.RateTrace = make([]RateChange, n)
		for i := range p.RateTrace {
			rc := &p.RateTrace[i]
			rc.At = sim.Time(r.i64("rate change at"))
			rc.From = sampling.Rate(r.i64("rate change from"))
			rc.To = sampling.Rate(r.i64("rate change to"))
			rc.Distance = r.f64("rate change distance")
			rc.Converged = r.u8("rate change converged") != 0
			rc.Resampled = int32(r.u32("rate change resampled"))
		}
	}

	if n := r.count(29, "decisions"); r.err == nil && n > 0 {
		p.Decisions = make([]Decision, n)
		for i := range p.Decisions {
			d := &p.Decisions[i]
			d.Epoch = int32(r.u32("decision epoch"))
			d.At = sim.Time(r.i64("decision at"))
			d.Kind = r.u8("decision kind")
			d.A = r.i64("decision a")
			d.B = r.i64("decision b")
		}
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-r.pos)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return p, nil
}

// Save writes the encoded profile to path.
func Save(path string, p *Profile) error {
	return os.WriteFile(path, Encode(p), 0o644)
}

// Load reads and decodes a profile file.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// EvidenceDivergence is the warm-start control signal: the total-variation
// distance between this run's evidence and the stored correlation map after
// normalizing each by its own total volume — 0.5·Σ|aᵢ/ΣA − bᵢ/ΣB| ∈ [0, 1].
// Normalizing both sides makes the signal scale-free (a 1X-sampled live map
// is compared by *shape*, not amplitude, against a full-rate stored map), so
// it reads 0 when the live run shares the profile's correlation structure
// and climbs toward 1 as the structure departs. An empty live map carries no
// evidence of divergence and reads 0; an empty stored map against a live one
// reads 1; mismatched dimensions read 1 (nothing comparable).
//
// The evidence is the live map with the warm-start prior subtracted. When
// the live accumulator was seeded from the stored map, the live map is
// prior + this-run evidence, and comparing raw live against stored would
// let the full-rate, full-run prior drown out any live drift — the gate
// would never reopen. Subtracting the prior cell-wise (clamped at zero, so
// decay cannot produce negative evidence) recovers the run's own
// observations, which are what the divergence gate must judge. A nil prior
// compares the live map itself.
func EvidenceDivergence(live, prior, stored *tcm.Map) float64 {
	if live == nil || stored == nil || live.N() != stored.N() {
		return 1
	}
	if prior != nil && prior.N() != live.N() {
		return 1
	}
	n := live.N()
	ev := func(i, j int) float64 {
		v := live.At(i, j)
		if prior != nil {
			v -= prior.At(i, j)
		}
		if v < 0 {
			return 0
		}
		return v
	}
	var la float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			la += ev(i, j)
		}
	}
	sa := stored.Total()
	if la == 0 {
		return 0
	}
	if sa == 0 {
		return 1
	}
	var sum float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum += math.Abs(ev(i, j)/la - stored.At(i, j)/sa)
		}
	}
	return sum / 2
}
