package core

import (
	"fmt"
	"sort"
	"time"

	"hido/internal/bitset"
	"hido/internal/cube"
	"hido/internal/fanout"
)

// EvolutionaryRestarts runs the genetic search `restarts` times with
// derived seeds and merges the outcomes. Each converged population
// finds a subset of the sparse projections (the search is stochastic
// and the best-set holds only M cubes), so studies that need *all*
// qualifying projections — the paper's arrhythmia study collects every
// projection with S ≤ −3 — union several runs.
//
// Restarts execute concurrently on opt.Workers goroutines (the budget
// is split: surplus workers fan out inside each run's evaluator).
// Results are merged in restart order and each run owns a derived
// seed, so the outcome is identical at every worker count. An
// opt.Observer does not serialize the restarts — it must be
// concurrency-safe, and each restart labels its events with a derived
// run ID ("evo.r0", "evo.r1", …); a final aggregate summary is
// emitted under the parent ID. stream's fits pass Workers −1, so over
// a local source their restarts run concurrently on GOMAXPROCS
// workers. Over a BatchSource (the cluster fan-out) the restarts run
// one after another whatever opt.Workers says: its shared RPC memo
// then sees the same lookups in the same order on every run, so the
// traffic of a fit is a pure function of the seed.
//
// The merged result holds every distinct projection found (up to
// restarts·M), sorted by ascending sparsity; Outliers is the union of
// covered records; Evaluations and Generations are summed (Elapsed is
// wall clock), and ConvergedDeJong reports whether every run met the
// De Jong criterion.
func (d *Detector) EvolutionaryRestarts(opt EvoOptions, restarts int) (*Result, error) {
	return EvolutionaryRestartsOver(d.Source(), opt, restarts)
}

// EvolutionaryRestartsOver is EvolutionaryRestarts against an
// arbitrary CountSource (see EvolutionaryOver). The source is shared
// by the concurrent restarts, so it must be safe for concurrent use; a
// memoizing source provides its own cross-run reuse.
func EvolutionaryRestartsOver(src CountSource, opt EvoOptions, restarts int) (*Result, error) {
	if restarts < 1 {
		return nil, fmt.Errorf("core: restarts=%d must be positive", restarts)
	}
	if err := validateEvoOptions(src, opt); err != nil {
		return nil, err
	}
	if opt.Checkpoint != nil {
		return nil, fmt.Errorf("core: checkpointing is not supported with restarts")
	}
	start := time.Now()
	concurrent := restarts
	if _, ok := src.(BatchSource); ok {
		concurrent = 1
	}
	outer, inner := fanout.Split(fanout.Workers(opt.Workers), concurrent)

	runID := opt.RunID
	if runID == "" {
		runID = "evo"
	}
	results := make([]*Result, restarts)
	errs := make([]error, restarts)
	fanout.For(restarts, outer, func(r int) {
		o := opt
		// Derive well-separated seeds; 0x9e3779b97f4a7c15 is the 64-bit
		// golden-ratio increment, so successive restarts never collide.
		o.Seed = opt.Seed + uint64(r)*0x9e3779b97f4a7c15
		o.Workers = inner
		if restarts > 1 {
			o.RunID = fmt.Sprintf("%s.r%d", runID, r)
		}
		results[r], errs[r] = EvolutionaryOver(src, o)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	merged := &Result{
		OutlierSet:      bitset.New(src.N()),
		ConvergedDeJong: true,
	}
	seen := map[string]bool{}
	for _, res := range results {
		merged.Evaluations += res.Evaluations
		merged.Generations += res.Generations
		merged.ConvergedDeJong = merged.ConvergedDeJong && res.ConvergedDeJong
		for _, p := range res.Projections {
			key := p.Cube.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			merged.Projections = append(merged.Projections, p)
		}
		merged.OutlierSet.Or(res.OutlierSet)
	}
	merged.Elapsed = time.Since(start)
	sort.SliceStable(merged.Projections, func(a, b int) bool {
		return merged.Projections[a].Sparsity < merged.Projections[b].Sparsity
	})
	merged.Outliers = merged.OutlierSet.Indices()
	if restarts > 1 {
		// Each restart already emitted its own summary; this is the
		// aggregate record for the whole union.
		notifySummary(opt.Observer, runID, "evo-restarts", merged, false)
	}
	return merged, nil
}

// FilterProjections returns a copy of the result keeping only
// projections with sparsity at or below the threshold, with outliers
// recomputed over the surviving projections (the §3.1 procedure:
// "all the sparse projections ... with a sparsity coefficient of -3
// or less").
func (r *Result) FilterProjections(d *Detector, threshold float64) *Result {
	return r.FilterProjectionsOver(d.Source(), threshold)
}

// FilterProjectionsOver is FilterProjections against an arbitrary
// CountSource — the cluster fit filters through the shard fan-out, one
// cover batch for the whole pass.
func (r *Result) FilterProjectionsOver(src CountSource, threshold float64) *Result {
	out := &Result{
		Evaluations:     r.Evaluations,
		Generations:     r.Generations,
		ConvergedDeJong: r.ConvergedDeJong,
		Elapsed:         r.Elapsed,
		OutlierSet:      bitset.New(src.N()),
	}
	var cs []cube.Cube
	for _, p := range r.Projections {
		if p.Sparsity > threshold {
			continue
		}
		out.Projections = append(out.Projections, p)
		cs = append(cs, p.Cube)
	}
	for _, cover := range coverAll(src, cs) {
		for _, i := range cover {
			out.OutlierSet.Set(i)
		}
	}
	out.Outliers = out.OutlierSet.Indices()
	return out
}

// Explanation is a minimal sparse sub-cube explaining one record: no
// constraint can be dropped without the sparsity coefficient rising
// above the threshold. It is the library's rendering of the
// "intensional knowledge" of [23] that §1 of the paper discusses —
// the smallest attribute combination that makes the record abnormal.
type Explanation struct {
	Cube     cube.Cube
	Sparsity float64
	Count    int
}

// Describe renders the explanation with attribute names.
func (e Explanation) Describe(d *Detector) string {
	return Projection{Cube: e.Cube, Sparsity: e.Sparsity, Count: e.Count}.Describe(d)
}

// MinimalExplanations reduces each projection covering record i to a
// minimal sub-cube still at or below the threshold, deduplicating the
// results. Constraints are dropped greedily, always removing the one
// whose removal keeps the sparsity lowest, so each explanation is
// locally minimal (dropping any remaining constraint would exceed the
// threshold). Projections above the threshold are skipped.
func (r *Result) MinimalExplanations(d *Detector, i int, threshold float64) []Explanation {
	cells := d.Grid.AssignRow(d.Data.RowView(i))
	seen := map[string]bool{}
	var out []Explanation
	for _, p := range r.Projections {
		if p.Sparsity > threshold || !p.Cube.Covers(cells) {
			continue
		}
		c := p.Cube.Clone()
		s := p.Sparsity
		for c.K() > 1 {
			bestDim := -1
			bestS := 0.0
			for _, dim := range c.Dims() {
				reduced := c.With(dim, cube.DontCare)
				rs := d.Index.Sparsity(reduced)
				if rs <= threshold && (bestDim < 0 || rs < bestS) {
					bestDim, bestS = dim, rs
				}
			}
			if bestDim < 0 {
				break // dropping anything would exceed the threshold
			}
			c = c.With(bestDim, cube.DontCare)
			s = bestS
		}
		key := c.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Explanation{Cube: c, Sparsity: s, Count: d.Index.Count(c)})
	}
	// Drop dominated explanations: if one explanation's constraints are
	// a subset of another's, the broader statement subsumes the
	// narrower one.
	kept := out[:0]
	for i, e := range out {
		dominated := false
		for j, other := range out {
			if i == j {
				continue
			}
			if e.Cube.Contains(other.Cube) && !other.Cube.Contains(e.Cube) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, e)
		}
	}
	out = kept
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Cube.K() != out[b].Cube.K() {
			return out[a].Cube.K() < out[b].Cube.K()
		}
		return out[a].Sparsity < out[b].Sparsity
	})
	return out
}
