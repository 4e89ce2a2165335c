package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"jessica2/internal/session"
)

// tracer records the traced pass from outside the program: wall-clock
// spans around the public calls the benchmark makes into each layer, and a
// runtime/pprof CPU profile folded by layer. A nil *tracer records nothing,
// so untraced iterations pay one nil check per call.
type tracer struct {
	spans map[string][]float64 // ms per call, by span name
	cpu   map[string]int64     // CPU samples by layer
	buf   bytes.Buffer
}

func newTracer() *tracer {
	return &tracer{spans: make(map[string][]float64), cpu: make(map[string]int64)}
}

// span runs fn, recording its duration under name.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.add(name, time.Since(start))
}

func (t *tracer) add(name string, d time.Duration) {
	t.spans[name] = append(t.spans[name], float64(d)/float64(time.Millisecond))
}

// startCPU begins a CPU profile at the runtime's default 100 Hz.
func (t *tracer) startCPU() error {
	t.buf.Reset()
	return pprof.StartCPUProfile(&t.buf)
}

// stopCPU ends the profile and folds its samples into the layer counts.
func (t *tracer) stopCPU() error {
	pprof.StopCPUProfile()
	p, err := decodeCPUProfile(t.buf.Bytes())
	if err != nil {
		return fmt.Errorf("decode CPU profile: %w", err)
	}
	foldLayers(p, t.cpu)
	return nil
}

// timedPolicy passes every call through to the wrapped policy and records
// how long each Observe takes.
type timedPolicy struct {
	session.Policy
	tr *tracer
}

func (p timedPolicy) Observe(s *session.Snapshot) []session.Action {
	start := time.Now()
	acts := p.Policy.Observe(s)
	p.tr.add("session.observe_ms", time.Since(start))
	return acts
}
