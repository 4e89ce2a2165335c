package profile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"jessica2/internal/sampling"
	"jessica2/internal/tcm"
)

// richProfile populates every section, including edge values (negative
// fixed-point cells, empty strings, special floats) the codec must carry.
func richProfile() *Profile {
	return &Profile{
		Fingerprint: Fingerprint{
			Workload: "kvmix,servemix",
			Scenario: "phased",
			Nodes:    4,
			Threads:  8,
			Seed:     42,
		},
		// Cells are the accumulator's non-negative fixed-point units (an
		// odd raw value checks sub-integer-byte resolution round-trips).
		TCMThreads: 2,
		TCMCells:   []int64{0, 1 << 12, 1 << 12, 7},
		Assignment: []int{0, 1, 1, 0, 3, 2, 2, 3},
		HotHomes:   []HotHome{{Key: 3, Home: 1}, {Key: 17, Home: 0}, {Key: 901, Home: 3}},
		Footprints: []ThreadFootprint{
			{Thread: 0, Classes: []ClassBytes{{Class: "", Bytes: 12}, {Class: "kv.Record", Bytes: 4096}}},
			{Thread: 5, Classes: nil},
		},
		RateTrace: []RateChange{
			{At: 1_000_000, From: sampling.FullRate, To: 64, Distance: 0.04321, Converged: true, Resampled: 1024},
			{At: 2_000_000, From: 64, To: sampling.MaxRate, Distance: math.Inf(1), Converged: false, Resampled: 0},
		},
		Decisions: []Decision{
			{Epoch: 1, At: 1_000_000, Kind: DecisionMigrateThread, A: 3, B: 2},
			{Epoch: 1, At: 1_000_000, Kind: DecisionRehomeObject, A: 901, B: 3},
			{Epoch: 4, At: 8_000_000, Kind: DecisionSetRate, A: 1, B: 0},
		},
	}
}

func TestRoundTripExact(t *testing.T) {
	p := richProfile()
	enc := Encode(p)
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
	// Encoding is a pure function: the decoded value re-encodes to the
	// same bytes, and encoding twice is byte-identical.
	if re := Encode(got); !bytes.Equal(re, enc) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(re), len(enc))
	}
	if again := Encode(p); !bytes.Equal(again, enc) {
		t.Fatal("Encode is not deterministic")
	}
}

// TestEncodeSizesOnce: Encode computes its exact length up front, so it
// allocates its output once and fills it to capacity, for a rich profile
// and an empty one.
func TestEncodeSizesOnce(t *testing.T) {
	for name, p := range map[string]*Profile{"rich": richProfile(), "empty": {}} {
		var enc []byte
		allocs := testing.AllocsPerRun(20, func() { enc = Encode(p) })
		if allocs != 1 {
			t.Errorf("%s: Encode allocates %v times, want 1", name, allocs)
		}
		if len(enc) != cap(enc) {
			t.Errorf("%s: Encode returns len %d, cap %d", name, len(enc), cap(enc))
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	p := &Profile{}
	got, err := Decode(Encode(p))
	if err != nil {
		t.Fatalf("Decode empty: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("empty round trip mismatch: %+v", got)
	}
}

// reseal recomputes the CRC trailer after a deliberate body mutation, so
// tests reach the structural checks behind the checksum.
func reseal(enc []byte) []byte {
	body := enc[:len(enc)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

func TestDecodeErrors(t *testing.T) {
	valid := Encode(richProfile())

	futureVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(futureVersion[4:8], Version+1)
	futureVersion = reseal(futureVersion)

	bitFlip := append([]byte(nil), valid...)
	bitFlip[len(bitFlip)/2] ^= 0x40

	// A count field claiming more elements than the payload could hold
	// must be rejected by the bounds check, not attempted as a huge
	// allocation. The TCM cell count sits right after the fingerprint.
	hugeCount := append([]byte(nil), valid...)
	fpEnd := 8 + 4 + len("kvmix,servemix") + 4 + len("phased") + 4 + 4 + 8
	binary.LittleEndian.PutUint32(hugeCount[fpEnd+4:fpEnd+8], 1<<30)
	hugeCount = reseal(hugeCount)

	tbody := append(append([]byte(nil), valid[:len(valid)-4]...), 0xAA, 0xBB, 0xCC, 0xDD)
	trailing := binary.LittleEndian.AppendUint32(tbody, crc32.ChecksumIEEE(tbody))

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorrupt},
		{"too short", []byte("J2"), ErrCorrupt},
		{"bad magic", append([]byte("NOPE"), valid[4:]...), ErrBadMagic},
		{"future version", futureVersion, ErrVersion},
		{"bit flip", bitFlip, ErrCorrupt},
		{"truncated", valid[:len(valid)-9], ErrCorrupt},
		{"huge count", hugeCount, ErrCorrupt},
		{"trailing bytes", trailing, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Decode(tc.data)
			if p != nil {
				t.Fatalf("Decode returned a profile for %s input", tc.name)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDecodeRejectsProfilesOutsideTheirCluster: a CRC-valid file whose
// placement or hot-object homes name a node outside its fingerprint's
// cluster, or whose cells do not fill its map, is corrupt. Loaded, the
// first would panic in Launch placing a thread on node 9 of 4.
func TestDecodeRejectsProfilesOutsideTheirCluster(t *testing.T) {
	fp := Fingerprint{Workload: "KVMix", Nodes: 4, Threads: 2, Seed: 42}
	for _, tc := range []struct {
		name string
		p    *Profile
	}{
		{"placement past the last node", &Profile{Fingerprint: fp, Assignment: []int{0, 9}}},
		{"placement on the node count", &Profile{Fingerprint: fp, Assignment: []int{4, 0}}},
		{"home past the last node", &Profile{Fingerprint: fp, HotHomes: []HotHome{{Key: 3, Home: 4}}}},
		{"negative home", &Profile{Fingerprint: fp, HotHomes: []HotHome{{Key: 3, Home: -1}}}},
		{"cells short of the map", &Profile{Fingerprint: fp, TCMThreads: 2, TCMCells: []int64{0, 1, 1}}},
	} {
		if p, err := Decode(Encode(tc.p)); p != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, %v; want %v", tc.name, p, err, ErrCorrupt)
		}
	}
}

// TestDecodeEveryTruncation feeds every strict prefix of a valid encoding:
// all must error (typed), none may panic.
func TestDecodeEveryTruncation(t *testing.T) {
	valid := Encode(richProfile())
	for n := 0; n < len(valid); n++ {
		if _, err := Decode(valid[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(valid))
		}
	}
}

func TestSaveLoad(t *testing.T) {
	p := richProfile()
	path := filepath.Join(t.TempDir(), "run.j2pf")
	if err := Save(path, p); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatal("Save/Load round trip mismatch")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.j2pf")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}

func TestHomeOf(t *testing.T) {
	p := &Profile{HotHomes: []HotHome{{Key: 3, Home: 1}, {Key: 17, Home: 0}, {Key: 901, Home: 3}}}
	for _, tc := range []struct {
		key  int64
		home int
		ok   bool
	}{{3, 1, true}, {17, 0, true}, {901, 3, true}, {0, 0, false}, {18, 0, false}, {1000, 0, false}} {
		home, ok := p.HomeOf(tc.key)
		if home != tc.home || ok != tc.ok {
			t.Fatalf("HomeOf(%d) = (%d, %v), want (%d, %v)", tc.key, home, ok, tc.home, tc.ok)
		}
	}
	if _, ok := (&Profile{}).HomeOf(3); ok {
		t.Fatal("HomeOf on empty list reported a home")
	}
}

func TestFingerprint(t *testing.T) {
	a := Fingerprint{Workload: "kvmix", Nodes: 4, Threads: 8, Seed: 42}
	if !a.Match(a) {
		t.Fatal("fingerprint does not match itself")
	}
	for _, b := range []Fingerprint{
		{Workload: "sor", Nodes: 4, Threads: 8, Seed: 42},
		{Workload: "kvmix", Scenario: "phased", Nodes: 4, Threads: 8, Seed: 42},
		{Workload: "kvmix", Nodes: 8, Threads: 8, Seed: 42},
		{Workload: "kvmix", Nodes: 4, Threads: 16, Seed: 42},
		{Workload: "kvmix", Nodes: 4, Threads: 8, Seed: 43},
	} {
		if a.Match(b) {
			t.Fatalf("fingerprint %v matched %v", a, b)
		}
	}
	if s := a.String(); s != "kvmix nodes=4 threads=8 seed=42 scenario=none" {
		t.Fatalf("String() = %q", s)
	}
}

func TestDivergence(t *testing.T) {
	mk := func(n int, cells ...float64) *tcm.Map {
		m := tcm.NewMap(n)
		idx := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, cells[idx])
				idx++
			}
		}
		return m
	}
	a := mk(3, 10, 0, 0)  // all volume on pair (0,1)
	b := mk(3, 0, 0, 10)  // all volume on pair (1,2)
	ha := mk(3, 50, 0, 0) // a, scaled 5×

	if d := EvidenceDivergence(a, nil, a.Clone()); d != 0 {
		t.Fatalf("self divergence = %v", d)
	}
	if d := EvidenceDivergence(a, nil, ha); d != 0 {
		t.Fatalf("scale-free divergence = %v, want 0", d)
	}
	if d := EvidenceDivergence(a, nil, b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("disjoint divergence = %v, want 1", d)
	}
	if d := EvidenceDivergence(tcm.NewMap(3), nil, a); d != 0 {
		t.Fatalf("empty live divergence = %v, want 0 (no evidence)", d)
	}
	if d := EvidenceDivergence(a, nil, tcm.NewMap(3)); d != 1 {
		t.Fatalf("empty stored divergence = %v, want 1", d)
	}
	if d := EvidenceDivergence(a, nil, tcm.NewMap(4)); d != 1 {
		t.Fatalf("dimension mismatch divergence = %v, want 1", d)
	}
	if d := EvidenceDivergence(nil, nil, a); d != 1 {
		t.Fatalf("nil live divergence = %v, want 1", d)
	}
	// Partial overlap lands strictly between the extremes and is symmetric
	// in normalized shape.
	c := mk(3, 10, 0, 10)
	if d := EvidenceDivergence(a, nil, c); d <= 0 || d >= 1 {
		t.Fatalf("partial divergence = %v, want in (0, 1)", d)
	}
}

func TestEvidenceDivergence(t *testing.T) {
	stored := tcm.NewMap(3)
	stored.Set(0, 1, 100)
	// Live = seeded prior + evidence on a *different* pair: with a nil
	// prior the signal reads the prior-dominated map as a near-match, with
	// the prior subtracted it must read full divergence.
	live := stored.Clone()
	live.Add(1, 2, 5)
	if d := EvidenceDivergence(live, nil, stored); d >= 0.5 {
		t.Fatalf("raw divergence = %v, expected the prior to dominate (< 0.5)", d)
	}
	if d := EvidenceDivergence(live, stored, stored); math.Abs(d-1) > 1e-12 {
		t.Fatalf("evidence divergence = %v, want 1 (all evidence off-profile)", d)
	}
	// Evidence on the stored pair: perfect match.
	match := stored.Clone()
	match.Add(0, 1, 5)
	if d := EvidenceDivergence(match, stored, stored); d != 0 {
		t.Fatalf("matching evidence divergence = %v, want 0", d)
	}
	// No evidence beyond the prior (or decayed below it): no verdict.
	if d := EvidenceDivergence(stored.Clone(), stored, stored); d != 0 {
		t.Fatalf("prior-only divergence = %v, want 0", d)
	}
	decayed := stored.Clone().Scale(0.5)
	if d := EvidenceDivergence(decayed, stored, stored); d != 0 {
		t.Fatalf("decayed-below-prior divergence = %v, want 0 (clamped)", d)
	}
	// Mismatched prior dimension: nothing comparable.
	if d := EvidenceDivergence(live, tcm.NewMap(4), stored); d != 1 {
		t.Fatalf("mismatched prior divergence = %v, want 1", d)
	}
}

// TestTCMFixedRoundTrip: cells captured from the incremental accumulator
// (always toFloat-of-int64 values) reconstruct bit-identically.
func TestTCMFixedRoundTrip(t *testing.T) {
	p := richProfile()
	m := p.TCM()
	if m.N() != p.TCMThreads {
		t.Fatalf("TCM dimension %d, want %d", m.N(), p.TCMThreads)
	}
	back := m.AppendFixedCells(nil)
	if !reflect.DeepEqual(back, p.TCMCells) {
		t.Fatalf("fixed-cell round trip: %v vs %v", back, p.TCMCells)
	}
}

// FuzzProfileDecode hammers the decoder with hostile input: it must never
// panic, and anything it accepts must re-encode to the exact input bytes
// (the format has no redundant encodings).
func FuzzProfileDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("J2PF"))
	f.Add(Encode(&Profile{}))
	f.Add(Encode(richProfile()))
	trunc := Encode(richProfile())
	f.Add(trunc[:len(trunc)-5])
	flip := append([]byte(nil), trunc...)
	flip[10] ^= 0x01
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			if p != nil {
				t.Fatal("Decode returned both a profile and an error")
			}
			return
		}
		re := Encode(p)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted %d bytes but re-encoded to %d different bytes", len(data), len(re))
		}
	})
}
