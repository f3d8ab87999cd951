package core

import (
	"hido/internal/bitset"
	"hido/internal/cube"
	"hido/internal/grid"
)

// CountSource is the data-access seam of the searches. Both search
// algorithms touch the records exclusively through cube counts and
// incrementally constrained record sets, so running them against a
// CountSource instead of a concrete Detector keeps the trajectory —
// every fitness value, every crossover choice, every pruning decision
// — a pure function of the counts. That is what makes the cluster
// mode exact: cube counts are additive across disjoint row shards, so
// a source that sums per-shard counts (internal/cluster) reproduces
// the single-node search bit for bit on the concatenated data.
//
// The local implementation wraps a Detector's bitmap index; it is what
// the Detector methods use, so the seam costs the classic paths nothing
// but an interface call.
//
// Implementations must be safe for concurrent use: the worker pools
// issue counts from several goroutines.
type CountSource interface {
	// N, D and Phi mirror the Detector accessors: total records, data
	// dimensionality, grid resolution.
	N() int
	D() int
	Phi() int
	// CountKey returns the number of records inside the cube. key must
	// be the cube's canonical c.Key(); callers that already hold it
	// avoid a second construction, and memoizing sources use it
	// directly.
	CountKey(c cube.Cube, key string) int
	// CountBatch counts several cubes at once (keys[i] == cs[i].Key()).
	// workers is a parallelism hint a local source may take; the
	// evolutionary search counts a local batch in blocks on its own
	// team and passes 1. Batching sources (the cluster fan-out)
	// resolve the whole batch in one round trip.
	CountBatch(cs []cube.Cube, keys []string, workers int) []int
	// Cover returns the indices of the records inside the cube, in
	// increasing order — the §2.3 postprocessing that turns retained
	// projections into the outlier set.
	Cover(c cube.Cube) []int
	// NewPartial returns a fresh partial record set positioned at the
	// full record set. Partials from one source must not be mixed with
	// another source's.
	NewPartial() Partial
}

// Partial is an incrementally constrained record set — the state the
// optimized crossover (Figure 5) and the brute-force enumeration
// (Figure 2) thread through their recursions. Every operation is
// defined purely in terms of the records inside the current
// constraint cube, so a remote implementation that only tracks the
// cube and asks a CountSource for cardinalities behaves identically
// to the local bitmap-backed one.
type Partial interface {
	// Reset repositions the partial at the full record set.
	Reset()
	// Constrain intersects the set with range r (1-based) of dimension
	// j.
	Constrain(j int, r uint16)
	// ConstrainFrom sets the partial to parent ∩ range(j, r) and
	// returns the resulting cardinality (the fused form the brute-force
	// inner loop depends on). parent must come from the same source.
	ConstrainFrom(parent Partial, j int, r uint16) int
	// Count returns the current cardinality.
	Count() int
	// Extend returns the cardinality the set would have after
	// Constrain(j, r), without mutating it.
	Extend(j int, r uint16) int
	// CopyFrom makes this partial a copy of other (same source).
	CopyFrom(other Partial)
}

// BatchSource is an optional extension of CountSource for sources
// whose counts cost a round trip, such as the cluster fan-out. The
// optimized crossover hands it every Partial.Extend of a round, across
// all pairs of a generation of every run, in one ExtendBatch call, and
// the §2.3 postprocessing hands it every cover of a pass in one
// CoverBatch. Other sources are extended in place on the search's team.
type BatchSource interface {
	CountSource
	// ExtendBatch returns xs[i].P.Extend(xs[i].J, xs[i].R) for every
	// i. The partials must come from this source.
	ExtendBatch(xs []Extension) []int
	// CoverBatch returns Cover(cs[i]) for every i.
	CoverBatch(cs []cube.Cube) [][]int
}

// Extension is one Partial.Extend request of a crossover round: the
// cardinality P would have after Constrain(J, R).
type Extension struct {
	P Partial
	J int
	R uint16
}

// coverAll returns src.Cover(c) for every cube, in one call when the
// source batches.
func coverAll(src CountSource, cs []cube.Cube) [][]int {
	if bs, ok := src.(BatchSource); ok && len(cs) > 0 {
		return bs.CoverBatch(cs)
	}
	out := make([][]int, len(cs))
	for i, c := range cs {
		out[i] = src.Cover(c)
	}
	return out
}

// detectorSource is the local CountSource: the detector's bitmap
// index, counted directly.
type detectorSource struct{ d *Detector }

// Source returns the detector's bitmap index as a CountSource: the
// source every Detector search method runs over, and the one stream
// fits a single search over.
func (d *Detector) Source() CountSource { return detectorSource{d} }

func (s detectorSource) N() int   { return s.d.N() }
func (s detectorSource) D() int   { return s.d.D() }
func (s detectorSource) Phi() int { return s.d.Phi() }

// CountKey gathers the cube's bitmaps from its key, reading k pairs
// rather than the cube's d positions.
func (s detectorSource) CountKey(_ cube.Cube, key string) int {
	return s.d.Index.CountKey(key)
}

func (s detectorSource) CountBatch(cs []cube.Cube, keys []string, _ int) []int {
	counts := make([]int, len(cs))
	for i := range cs {
		counts[i] = s.CountKey(cs[i], keys[i])
	}
	return counts
}

func (s detectorSource) Cover(c cube.Cube) []int {
	return s.d.Index.Cover(c).Indices()
}

func (s detectorSource) NewPartial() Partial {
	return &bitsetPartial{ix: s.d.Index, set: bitset.New(s.d.N())}
}

// bitsetPartial is the local Partial: a dense bitmap intersected with
// range bitmaps in place — exactly the representation the serial
// searches have always used.
type bitsetPartial struct {
	ix  *grid.Index
	set *bitset.Set
}

func (p *bitsetPartial) Reset() { p.set.Fill() }

func (p *bitsetPartial) Constrain(j int, r uint16) {
	p.set.And(p.ix.RangeSet(j, r))
}

func (p *bitsetPartial) ConstrainFrom(parent Partial, j int, r uint16) int {
	return p.set.AndFrom(parent.(*bitsetPartial).set, p.ix.RangeSet(j, r))
}

func (p *bitsetPartial) Count() int { return p.set.Count() }

func (p *bitsetPartial) Extend(j int, r uint16) int {
	return p.ix.ExtendCount(p.set, j, r)
}

func (p *bitsetPartial) CopyFrom(other Partial) {
	p.set.CopyFrom(other.(*bitsetPartial).set)
}
