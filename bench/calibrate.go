package main

import (
	"runtime"
	"time"
)

// refCalibration is the calibration kernel's median time on the host the
// baselines in README.md were measured on (idle, see there). Host-time
// metrics are reported in seconds of that reference host.
const refCalibration = 20 * time.Millisecond

// calEvery spaces calibration samples through a pass: often enough for a
// stable median, seldom enough to cost a few percent of the window.
const calEvery = 250 * time.Millisecond

// calibrator times a fixed kernel that runs none of the simulator's code,
// to measure how fast the host is running right now. Other tenants of a
// shared machine can slow it twofold for minutes at a time, which no number
// of repetitions averages out; scaling host times by refCalibration over
// the measured kernel time removes most of that. The kernel does the kinds
// of work the simulator's hot paths do: pointer chasing through an
// L2-sized array, map lookups, integer hashing, and goroutine hand-offs over
// unbuffered channels at GOMAXPROCS 1.
type calibrator struct {
	next []uint32
	m    map[uint64]uint64
}

const (
	calChaseLen   = 1 << 18 // 1 MB of uint32 links
	calChaseSteps = 800_000
	calMapKeys    = 1 << 16
	calLookups    = 200_000
	calHashes     = 2_000_000
	calHandoffs   = 10_000
	calKeyStride  = 0x9e3779b97f4a7c15
)

// calSink keeps the kernel's results live.
var calSink uint64

func newCalibrator() *calibrator {
	c := &calibrator{next: make([]uint32, calChaseLen), m: make(map[uint64]uint64, calMapKeys)}
	// One random cycle through every slot (Sattolo's algorithm), so the
	// chase visits the whole array in an order the prefetcher cannot guess.
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(c.next) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	for i := uint64(0); i < calMapKeys; i++ {
		c.m[i*calKeyStride] = i
	}
	return c
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// measure runs the kernel once and returns its wall time.
func (c *calibrator) measure() time.Duration {
	start := time.Now()
	var sum uint64
	p := uint32(0)
	for i := 0; i < calChaseSteps; i++ {
		p = c.next[p]
	}
	sum += uint64(p)
	x := uint64(7)
	for i := 0; i < calLookups; i++ {
		x = xorshift(x)
		sum += c.m[(x%calMapKeys)*calKeyStride]
	}
	for i := 0; i < calHashes; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	sum += x
	prev := runtime.GOMAXPROCS(1)
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	for i := 0; i < calHandoffs; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-pong
	runtime.GOMAXPROCS(prev)
	calSink += sum
	return time.Since(start)
}
