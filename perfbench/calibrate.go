package main

import (
	"math/bits"
	"time"
)

// A fit is single-threaded CPU work, so its wall time follows the speed
// the host gives the machine's cores, and on a shared host that speed
// drifts by a fifth or more over minutes with no steal to show for it.
// The fit workload therefore times a calibration loop right after each
// fit and scales the fit's time to a reference machine, one on which the
// loop takes calibrationRef. The loop is the benchmark's own code: a
// change to the program moves a scaled time exactly as much as the wall
// time, while a change in the host's speed slows the fit and the loop
// alike and cancels out.

// calibrationRef is the calibration loop's time on the reference
// machine.
const calibrationRef = 10 * time.Millisecond

// The loop does the kinds of work a fit does: bitmap intersections with
// population counts over a working set the size of a Musk bitmap index,
// and hash-map updates.
const (
	calibrationWords  = 1 << 17 // per bitmap, 1 MiB
	calibrationPasses = 40
	calibrationKeys   = 2000 // map updates per pass
)

type calibrator struct {
	a, b []uint64
	seen map[uint64]int32
	sink int
}

func newCalibrator() *calibrator {
	c := &calibrator{
		a:    make([]uint64, calibrationWords),
		b:    make([]uint64, calibrationWords),
		seen: make(map[uint64]int32, calibrationPasses*calibrationKeys),
	}
	for i := range c.a {
		c.a[i] = uint64(i) * 0x9e3779b97f4a7c15
		c.b[i] = uint64(i) * 0xbf58476d1ce4e5b9
	}
	return c
}

// measure runs the loop once and returns its wall time. It allocates
// nothing, so the collector neither slows it nor is started by it.
func (c *calibrator) measure() time.Duration {
	clear(c.seen)
	mask := len(c.a) - 1
	n := 0
	start := time.Now()
	for pass := 0; pass < calibrationPasses; pass++ {
		for i, w := range c.a {
			n += bits.OnesCount64(w & c.b[(i*7+pass)&mask])
		}
		for i := 0; i < calibrationKeys; i++ {
			c.seen[c.a[(i*31+pass)&mask]]++
		}
	}
	d := time.Since(start)
	c.sink += n + len(c.seen)
	return d
}

// scale times the loop once and returns d as it would read on the
// reference machine, with the loop's time.
func (c *calibrator) scale(d time.Duration) (scaled, loop time.Duration) {
	loop = c.measure()
	return time.Duration(float64(d) * float64(calibrationRef) / float64(loop)), loop
}
