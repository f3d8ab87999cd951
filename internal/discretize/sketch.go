package discretize

import (
	"fmt"
	"math"
	"sort"
)

// Sketch is a mergeable equi-depth quantile sketch in the KLL family:
// a ladder of fixed-capacity compactors where level h holds items of
// weight 2^h. Adding is amortized O(1); when a level overflows it is
// sorted and every other item is promoted with doubled weight, so the
// sketch holds O(cap·log(n/cap)) items regardless of stream length.
//
// It exists so grid boundaries can track a stream online: each ingest
// epoch keeps one sketch per dimension, sketches of live epochs merge
// into a window sketch, and Cuts(phi) yields equi-depth boundaries
// without the full sorted pass discretize.Fit needs. While no
// compaction has happened (n ≤ cap) the sketch is exact and Cuts is
// bit-identical to equiDepthCuts; past that, quantile ranks are off by
// at most ~log2(n/cap)/cap of the stream (see RankErrorBound).
//
// Compaction keeps alternating parities instead of coin flips, so a
// sketch fed the same stream is byte-deterministic — the repo-wide
// reproducibility invariant — at the cost of the adversarial-stream
// guarantees randomized KLL has.
//
// A Sketch is not safe for concurrent use.
type Sketch struct {
	cap    int
	n      uint64 // non-NaN values observed (total weight)
	levels [][]float64
	// parity[h] selects which half survives level h's next compaction;
	// alternating it centers the error instead of drifting one way.
	parity []bool
	// scratch recycles the weighted-item buffer Cuts and Rank sort.
	scratch []weighted
}

// weighted is one retained item with its level weight materialized.
type weighted struct {
	v float64
	w uint64
}

// DefaultSketchCap is the per-level compactor capacity used by
// NewSketch: windows up to this size are represented exactly.
const DefaultSketchCap = 1024

// NewSketch returns an empty sketch with the default capacity.
func NewSketch() *Sketch { return NewSketchCap(DefaultSketchCap) }

// NewSketchCap returns an empty sketch whose compactors hold up to k
// items per level. k below 8 is raised to 8 (tiny compactors give
// useless error bounds); k must fit in memory comfortably — each level
// is one []float64 of length ≤ k.
func NewSketchCap(k int) *Sketch {
	if k < 8 {
		k = 8
	}
	// An even capacity keeps compaction exact in total weight: odd
	// lengths always leave one item behind at the level.
	if k%2 == 1 {
		k++
	}
	return &Sketch{cap: k}
}

// N returns how many non-missing values the sketch has absorbed
// (including merged-in sketches).
func (s *Sketch) N() int { return int(s.n) }

// Reset empties the sketch in place, keeping its buffers.
func (s *Sketch) Reset() {
	s.n = 0
	for h := range s.levels {
		s.levels[h] = s.levels[h][:0]
		s.parity[h] = false
	}
}

// Add absorbs one value. NaN (the missing-attribute encoding) is
// ignored, mirroring equiDepthCuts dropping missing entries.
func (s *Sketch) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.grow(1)
	s.levels[0] = append(s.levels[0], v)
	s.n++
	if len(s.levels[0]) >= s.cap {
		s.compactFrom(0)
	}
}

// grow ensures at least h levels exist.
func (s *Sketch) grow(h int) {
	for len(s.levels) < h {
		s.levels = append(s.levels, nil)
		s.parity = append(s.parity, false)
	}
}

// compactFrom cascades compactions upward from level h until every
// level is under capacity again.
func (s *Sketch) compactFrom(h int) {
	for ; h < len(s.levels) && len(s.levels[h]) >= s.cap; h++ {
		buf := s.levels[h]
		sort.Float64s(buf)
		// An odd-length buffer keeps its maximum at this level so the
		// promoted pairs are exact halves and total weight is preserved.
		m := len(buf)
		keepMax := m%2 == 1
		if keepMax {
			m--
		}
		start := 0
		if s.parity[h] {
			start = 1
		}
		s.parity[h] = !s.parity[h]
		s.grow(h + 2)
		for i := start; i < m; i += 2 {
			s.levels[h+1] = append(s.levels[h+1], buf[i])
		}
		if keepMax {
			buf[0] = buf[len(buf)-1]
			s.levels[h] = buf[:1]
		} else {
			s.levels[h] = buf[:0]
		}
	}
}

// Merge absorbs another sketch; o is left unchanged. The two sketches
// may have different capacities — the receiver's governs from here on.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	s.grow(len(o.levels))
	for h, lv := range o.levels {
		s.levels[h] = append(s.levels[h], lv...)
	}
	s.n += o.n
	for h := 0; h < len(s.levels); h++ {
		if len(s.levels[h]) >= s.cap {
			s.compactFrom(h)
		}
	}
}

// items materializes the retained values with their weights, sorted by
// value, into the reusable scratch buffer.
func (s *Sketch) items() []weighted {
	out := s.scratch[:0]
	for h, lv := range s.levels {
		w := uint64(1) << uint(h)
		for _, v := range lv {
			out = append(out, weighted{v, w})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].v < out[b].v })
	s.scratch = out
	return out
}

// Rank estimates the fraction of the stream that is ≤ v, in [0,1].
// An empty sketch reports 0.
func (s *Sketch) Rank(v float64) float64 {
	if s.n == 0 || math.IsNaN(v) {
		return 0
	}
	var below uint64
	for h, lv := range s.levels {
		w := uint64(1) << uint(h)
		for _, x := range lv {
			if x <= v {
				below += w
			}
		}
	}
	return float64(below) / float64(s.n)
}

// Quantile estimates the q-quantile (q in [0,1]) of the stream. An
// empty sketch reports +Inf, the all-missing convention before Cuts
// clamps it.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return math.Inf(1)
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	items := s.items()
	target := uint64(math.Ceil(q * float64(s.n)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for _, it := range items {
		cum += it.w
		if cum >= target {
			return it.v
		}
	}
	return items[len(items)-1].v
}

// Cuts returns phi−1 non-decreasing equi-depth boundaries over the
// absorbed stream — the online counterpart of equiDepthCuts, and
// bit-identical to it while the sketch is still exact (no compaction
// yet). Degenerate windows degrade gracefully: an empty sketch yields
// all-MaxFloat64 cuts (the all-missing convention, clamped finite like
// every cut), and windows smaller than phi repeat values, leaving some
// ranges empty exactly as equi-depth histograms do on tiny or
// tie-heavy data. The result is always finite, valid input for
// FromCuts/Apply and for a saved model.
func (s *Sketch) Cuts(phi int) []float64 {
	if err := CheckPhi(phi); err != nil {
		panic(err)
	}
	cuts := make([]float64, phi-1)
	if s.n == 0 {
		for i := range cuts {
			cuts[i] = math.Inf(1)
		}
		return finiteCuts(cuts)
	}
	items := s.items()
	var cum uint64
	idx := 0
	for r := 1; r < phi; r++ {
		// Boundary after the ceil(r·n/phi)-th weighted order statistic —
		// the same placement rule as equiDepthCuts.
		target := (uint64(r)*s.n + uint64(phi) - 1) / uint64(phi)
		if target < 1 {
			target = 1
		}
		for idx < len(items) && cum+items[idx].w < target {
			cum += items[idx].w
			idx++
		}
		if idx >= len(items) {
			cuts[r-1] = items[len(items)-1].v
		} else {
			cuts[r-1] = items[idx].v
		}
	}
	return finiteCuts(cuts)
}

// RankErrorBound is a conservative bound on the rank error of Cuts and
// Rank as a fraction of the stream: zero while the sketch is exact,
// and ~log2(n/cap)/cap·(cap grows a level per doubling) once
// compaction starts. Tests use it as the differential tolerance
// against the exact sorted pass.
func (s *Sketch) RankErrorBound() float64 {
	if s.n == 0 {
		return 0
	}
	// Levels above 0 only exist after compaction; each compaction at
	// level h displaces any fixed rank by at most 2^h, and level h
	// compacts at most n/(cap·2^h) times — so each level contributes at
	// most n/cap rank error.
	levels := 0
	for h := 1; h < len(s.levels); h++ {
		if len(s.levels[h]) > 0 {
			levels = h
		}
	}
	if levels == 0 {
		return 0
	}
	return float64(levels+1) / float64(s.cap)
}

// Retained reports how many items the sketch currently holds across
// all levels — the memory footprint knob tests and benchmarks watch.
func (s *Sketch) Retained() int {
	total := 0
	for _, lv := range s.levels {
		total += len(lv)
	}
	return total
}

// SketchColumns builds one sketch per dimension over a row-major
// values slice (NaN = missing), the epoch-ingest helper. d must divide
// len(vals).
func SketchColumns(vals []float64, d, capacity int) []*Sketch {
	if d <= 0 || len(vals)%d != 0 {
		panic(fmt.Sprintf("discretize: SketchColumns d=%d over %d values", d, len(vals)))
	}
	out := make([]*Sketch, d)
	for j := range out {
		out[j] = NewSketchCap(capacity)
	}
	for i := 0; i < len(vals); i += d {
		for j := 0; j < d; j++ {
			out[j].Add(vals[i+j])
		}
	}
	return out
}
