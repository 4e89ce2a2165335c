package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the layer fold
// reads: each sample's stack and count, and the function behind each frame.
type cpuProfile struct {
	samples []cpuSample
	// frames maps a location id to its function ids, innermost first (a
	// location holds several when calls were inlined into it).
	frames map[uint64][]uint64
	funcs  map[uint64]cpuFunc
}

type cpuSample struct {
	locs  []uint64 // leaf first
	count int64
}

type cpuFunc struct {
	name, file string
}

// Field numbers of the profile.proto messages the decoder reads.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID       = 1
	functionName     = 2
	functionFilename = 4
)

// decodeCPUProfile parses a gzip-compressed (or raw) profile.proto message
// as runtime/pprof writes it.
func decodeCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: gunzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: gunzip: %w", err)
		}
	}
	p := &cpuProfile{frames: make(map[uint64][]uint64), funcs: make(map[uint64]cpuFunc)}
	var (
		strs        []string
		sampleTypes []uint64   // string-table index of each value's type
		values      [][]uint64 // per sample, parallel to p.samples
		rawFuncs    [][3]uint64
	)
	err := eachField(data, func(f field) error {
		switch f.num {
		case profSampleType:
			return eachField(f.bytes, func(g field) error {
				if g.num == valueTypeType {
					sampleTypes = append(sampleTypes, g.varint)
				}
				return nil
			})
		case profSample:
			var s cpuSample
			var vs []uint64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case sampleLocationID:
					return g.varints(&s.locs)
				case sampleValue:
					return g.varints(&vs)
				}
				return nil
			})
			p.samples = append(p.samples, s)
			values = append(values, vs)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case locationID:
					id = g.varint
				case locationLine:
					return eachField(g.bytes, func(h field) error {
						if h.num == lineFunctionID {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			p.frames[id] = fns
			return err
		case profFunction:
			var rf [3]uint64 // id, name, filename
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case functionID:
					rf[0] = g.varint
				case functionName:
					rf[1] = g.varint
				case functionFilename:
					rf[2] = g.varint
				}
				return nil
			})
			rawFuncs = append(rawFuncs, rf)
			return err
		case profStringTable:
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, rf := range rawFuncs {
		p.funcs[rf[0]] = cpuFunc{name: str(rf[1]), file: str(rf[2])}
	}
	// The sample count is the value typed "samples"; runtime/pprof lists it
	// first, ahead of cpu nanoseconds.
	idx := 0
	for i, t := range sampleTypes {
		if str(t) == "samples" {
			idx = i
			break
		}
	}
	for i, vs := range values {
		if idx < len(vs) {
			p.samples[i].count = int64(vs[idx])
		}
	}
	return p, nil
}

// field is one decoded protobuf field: a varint (wire types 0, 1 and 5 are
// read into varint) or a length-delimited payload.
type field struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

var errTruncated = errors.New("pprof: truncated message")

// eachField calls fn for every top-level field of the message in b.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varint, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			f.varint, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			f.varint, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated varint field, packed or not.
func (f field) varints(dst *[]uint64) error {
	if f.wire == 0 {
		*dst = append(*dst, f.varint)
		return nil
	}
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, v)
		b = b[n:]
	}
	return nil
}

const internalPrefix = "jessica2/internal/"

// layerOf names the layer a frame belongs to, or "" for a frame outside
// internal/. Frames in gos/failure.go count as failure and frames in
// workload/robust.go as robust.
func layerOf(fn cpuFunc) string {
	rest, ok := strings.CutPrefix(fn.name, internalPrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	switch {
	case pkg == "gos" && strings.HasSuffix(fn.file, "internal/gos/failure.go"):
		return "failure"
	case pkg == "workload" && strings.HasSuffix(fn.file, "internal/workload/robust.go"):
		return "robust"
	}
	return pkg
}

// foldLayers adds each sample's count to the layer of its innermost frame
// under internal/. Samples with no such frame go to runtime.gc when a
// background mark worker ran them, to bench when a frame of this program is
// on the stack, and to runtime.other otherwise.
func foldLayers(p *cpuProfile, into map[string]int64) {
	for _, s := range p.samples {
		layer, gc, bench := "", false, false
	stack:
		for _, loc := range s.locs {
			for _, id := range p.frames[loc] {
				fn := p.funcs[id]
				if layer = layerOf(fn); layer != "" {
					break stack
				}
				switch {
				case fn.name == "runtime.gcBgMarkWorker":
					gc = true
				case strings.HasPrefix(fn.name, "main.") || strings.HasPrefix(fn.name, "jessica2/bench."):
					bench = true
				}
			}
		}
		switch {
		case layer != "":
		case gc:
			layer = bucketGC
		case bench:
			layer = bucketBench
		default:
			layer = bucketOther
		}
		into[layer] += s.count
	}
}
