package dispatch

import (
	"fmt"
	"hash/crc32"
	"testing"

	"jessica2/internal/profile"
)

// sealBody wraps a fuzzed body in an outcome envelope with this build's
// schema and version and the body's CRC, so the decoder reads the body
// instead of rejecting almost every input at the CRC check. A body that is
// not one JSON value leaves the envelope malformed, which the decoder must
// reject too.
func sealBody(body []byte) []byte {
	head := fmt.Sprintf(`{"schema":%q,"version":%d,"kind":%q,"crc":%d,"body":`,
		WireSchema, WireVersion, kindOut, crc32.ChecksumIEEE(body))
	return append(append([]byte(head), body...), '}')
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
		out, err := DecodeOut(sealBody(body))
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
