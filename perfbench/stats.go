package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile before
// it is reported.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples: the smallest sample with at least q·n samples at or below
// it. It returns NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)]
}

// rank is the zero-based index of the nearest-rank q-quantile of n
// samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is how many of n samples lie above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// qualifies reports whether the q-quantile of n samples has at least
// minBeyond samples above it.
func qualifies(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// median is the nearest-rank median of unsorted samples.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// sorted returns a sorted copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// mean is the arithmetic mean, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// describe renders a latency distribution with its sample count: the
// median, and each tail percentile in tails that has at least minBeyond
// samples above it. Unqualified tails are named with the count they
// lack, never printed as a number.
func describe(name, unit string, xs []float64, tails ...float64) string {
	s := sorted(xs)
	out := fmt.Sprintf("%s n=%d", name, len(s))
	if len(s) == 0 {
		return out + " (no samples)"
	}
	out += fmt.Sprintf(" p50=%.4g %s", quantile(s, 0.5), unit)
	for _, q := range tails {
		label := fmt.Sprintf("p%g", q*100)
		if qualifies(len(s), q) {
			out += fmt.Sprintf(" %s=%.4g %s (%d beyond)", label, quantile(s, q), unit, beyond(len(s), q))
		} else {
			out += fmt.Sprintf(" %s not reported (%d beyond, need %d)", label, beyond(len(s), q), minBeyond)
		}
	}
	return out
}

// sample is one timed operation of a load loop, in offsets from the
// loop's start.
type sample struct {
	// due is when the operation was scheduled to start (open loop) or
	// did start (closed loop); sent is when it actually started.
	due, sent, done time.Duration
	// class tags the operation's request shape (0 when there is one).
	class int
	// units is the work it completed, such as records.
	units int
	ok    bool
}

// latency is the operation's time from its scheduled start: an open
// loop charges a late send to the operation, so a stall shows in every
// request it delayed.
func (s sample) latency() time.Duration { return s.done - s.due }

// lateness is how far behind schedule the generator sent it.
func (s sample) lateness() time.Duration { return s.sent - s.due }

// ms is d in milliseconds.
func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// latencies returns the successful samples' latencies in ms, keeping
// those keep accepts (nil keeps all).
func latencies(ss []sample, keep func(sample) bool) []float64 {
	var ds []time.Duration
	for _, s := range ss {
		if s.ok && (keep == nil || keep(s)) {
			ds = append(ds, s.latency())
		}
	}
	return millis(ds)
}

// latenesses returns every sample's generator lateness in ms.
func latenesses(ss []sample) []float64 {
	ds := make([]time.Duration, len(ss))
	for i, s := range ss {
		ds[i] = s.lateness()
	}
	return millis(ds)
}

// maxLateLastQuarter bounds the generator's median lateness over the
// last quarter of an open-loop schedule. A generator that keeps up sends
// within timer slack of each due time; one this far behind has a
// backlog that grew during the run.
const maxLateLastQuarter = 20 * time.Millisecond

// backlogGrew reports whether an open loop fell behind its schedule:
// the median lateness of the samples due in the last quarter of span
// exceeds maxLateLastQuarter.
func backlogGrew(ss []sample, span time.Duration) (bool, time.Duration) {
	var late []float64
	for _, s := range ss {
		if s.due >= span*3/4 {
			late = append(late, float64(s.lateness()))
		}
	}
	if len(late) == 0 {
		return false, 0
	}
	m := time.Duration(median(late))
	return m > maxLateLastQuarter, m
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// covered is how much of parent the union of children covers. Children
// may overlap each other and stick out of parent; only their union
// inside parent counts.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			total += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}
