package dispatch

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"jessica2/internal/profile"
)

// sealBody wraps a fuzzed body in an envelope of the given kind with this
// build's schema and version and the body's CRC, so the decoder reads the
// body instead of rejecting almost every input at the CRC check. A body
// that is not one JSON value leaves the envelope malformed, which the
// decoder must reject too.
func sealBody(kind string, body []byte) []byte {
	head := fmt.Sprintf(`{"schema":%q,"version":%d,"kind":%q,"crc":%d,"body":`,
		WireSchema, WireVersion, kind, crc32.ChecksumIEEE(body))
	return append(append([]byte(head), body...), '}')
}

// FuzzDecodeJob: DecodeJob never panics; an accepted job re-encodes,
// decodes again to the same lease and spec, and re-encodes to the same
// bytes; and an accepted stored profile yields its map. The checked-in
// corpus holds richSpec's job body and a job whose stored profile has 3
// cells for a 2×2 map.
func FuzzDecodeJob(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"lease":{"job":1},"spec":{"App":0,"Nodes":1,"Threads":1}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		lease, spec, err := DecodeJob(sealBody(kindJob, body))
		if err != nil {
			return
		}
		if p := spec.LoadProfile; p != nil {
			p.TCM()
		}
		enc, err := EncodeJob(lease, spec)
		if err != nil {
			t.Fatalf("accepted job does not encode: %v", err)
		}
		lease2, spec2, err := DecodeJob(enc)
		if err != nil {
			t.Fatalf("re-encoded job rejected: %v", err)
		}
		if lease2 != lease || !reflect.DeepEqual(spec2, spec) {
			t.Fatalf("job drifted through the wire:\n got %+v %+v\nwant %+v %+v", lease2, spec2, lease, spec)
		}
		if again, err := EncodeJob(lease2, spec2); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("round-tripped job re-encodes to different bytes (err %v)", err)
		}
	})
}

// FuzzDecodeOut: DecodeOut never panics; an accepted outcome survives
// requireRoundTrip field by field and byte for byte; and an accepted stored
// profile, loaded or captured, yields its map. The checked-in corpus holds
// a sessionSpec outcome's body and an outcome whose captured profile has 3
// cells for a 2×2 map.
func FuzzDecodeOut(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"tcm":{"n":1,"cell_bits":[9221120237041090561]},"profiler":{"rate_trace":[{"distance_bits":9221120237041090561}]},"actions":[]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		out, err := DecodeOut(sealBody(kindOut, body))
		if err != nil {
			return
		}
		for _, p := range []*profile.Profile{out.Spec.LoadProfile, out.Captured} {
			if p != nil {
				p.TCM()
			}
		}
		requireRoundTrip(t, out)
	})
}
