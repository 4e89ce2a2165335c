package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// spinSink keeps spinForDecoderTest's loop from being optimized away.
var spinSink uint64

//go:noinline
func spinForDecoderTest(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestDecodeCPUProfileOfBusyFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForDecoderTest(400 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range p.samples {
		total += s.count
		if onStack(p, s, ".spinForDecoderTest") {
			inSpin += s.count
		}
	}
	if total < 10 {
		t.Fatalf("decoded %d samples from 400 ms of busy CPU, want at least 10", total)
	}
	if inSpin*2 < total {
		t.Fatalf("busy function on %d of %d samples, want most", inSpin, total)
	}
	folded := make(map[string]int64)
	foldLayers(p, folded)
	if folded[bucketBench]*2 < total {
		t.Fatalf("fold = %v, want most samples in %s", folded, bucketBench)
	}
}

func onStack(p *cpuProfile, s cpuSample, suffix string) bool {
	for _, loc := range s.locs {
		for _, id := range p.frames[loc] {
			if strings.HasSuffix(p.funcs[id].name, suffix) {
				return true
			}
		}
	}
	return false
}

func TestDecodeRejectsTruncatedProfile(t *testing.T) {
	// Field 2 (a sample), length-delimited, claiming 5 bytes but holding 1.
	if _, err := decodeCPUProfile([]byte{0x12, 0x05, 0x08}); err == nil {
		t.Fatal("truncated message decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		name, file, want string
	}{
		{"jessica2/internal/gos.(*Thread).access", "/src/internal/gos/thread.go", "gos"},
		{"jessica2/internal/gos.(*Kernel).sweepLeases", "/src/internal/gos/failure.go", "failure"},
		{"jessica2/internal/workload.(*serveDispatcher).reestimateHedge", "jessica2/internal/workload/robust.go", "robust"},
		{"jessica2/internal/workload.(*ServeMix).ServeStatsInto", "/src/internal/workload/servemix.go", "workload"},
		{"jessica2/internal/sim.(*Engine).Spawn.func1", "/src/internal/sim/engine.go", "sim"},
		{"jessica2/internal/xrand.New", "/src/internal/xrand/xrand.go", "xrand"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
		{"main.runIteration", "/src/bench/iterate.go", ""},
	} {
		if got := layerOf(cpuFunc{name: tc.name, file: tc.file}); got != tc.want {
			t.Errorf("layerOf(%s, %s) = %q, want %q", tc.name, tc.file, got, tc.want)
		}
	}
}
